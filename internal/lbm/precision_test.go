package lbm

import (
	"math"
	"testing"
)

// NewSolver must dispatch on Params.Precision, and the typed
// constructors must reject a mismatched parameter set instead of
// silently running at the wrong precision.
func TestSolverPrecisionDispatch(t *testing.T) {
	p := WaterAir(6, 8, 6)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*SimOf[float64]); !ok {
		t.Errorf("default precision built %T, want *SimOf[float64]", s)
	}

	p32 := WaterAir(6, 8, 6)
	p32.Precision = F32
	s32, err := NewSolver(p32)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s32.(*SimOf[float32]); !ok {
		t.Errorf("F32 precision built %T, want *SimOf[float32]", s32)
	}

	if _, err := NewSim(p32); err == nil {
		t.Error("NewSim accepted an F32 parameter set")
	}
	if _, err := NewSimOf[float32](WaterAir(6, 8, 6)); err == nil {
		t.Error("NewSimOf[float32] accepted an F64 parameter set")
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Error("ParsePrecision accepted f16")
	}
	for _, spec := range []struct {
		s    string
		want Precision
	}{{"f32", F32}, {"f64", F64}, {"", F64}} {
		got, err := ParsePrecision(spec.s)
		if err != nil || got != spec.want {
			t.Errorf("ParsePrecision(%q) = %v, %v", spec.s, got, err)
		}
	}
}

// The float32 core must run the slip setup stably: finite populations,
// conserved mass (to single-precision accumulation tolerance), a
// developing streamwise flow, and agreement with the float64 core to a
// few float32 ulps after a short run. The tight physics bound lives in
// the experiments accuracy harness; this is the smoke-level guarantee.
func TestFloat32CoreRunsSlipSetup(t *testing.T) {
	p64 := WaterAir(8, 16, 8)
	p64.Fused = true
	p32 := WaterAir(8, 16, 8)
	p32.Fused = true
	p32.Precision = F32

	s64, err := NewSolver(p64)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := NewSolver(p32)
	if err != nil {
		t.Fatal(err)
	}
	mass0 := s32.TotalMass(0)
	const steps = 50
	advance(t, s64, steps)
	advance(t, s32, steps)
	if err := s32.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if mass1 := s32.TotalMass(0); math.Abs(mass1-mass0) > 1e-3*mass0 {
		t.Errorf("f32 mass drifted: %v -> %v", mass0, mass1)
	}

	var maxRel, uMax float64
	for y := 1; y < p64.NY-1; y++ {
		u64, _, _ := s64.Velocity(4, y, 4)
		if a := math.Abs(u64); a > uMax {
			uMax = a
		}
	}
	if uMax == 0 {
		t.Fatal("no flow developed")
	}
	for y := 1; y < p64.NY-1; y++ {
		u64, _, _ := s64.Velocity(4, y, 4)
		u32, _, _ := s32.Velocity(4, y, 4)
		if rel := math.Abs(u32-u64) / uMax; rel > maxRel {
			maxRel = rel
		}
	}
	// ~1e-7 per op; 50 steps of drift across a multicomponent stencil
	// stays well under 1e-3 relative to the profile peak.
	if maxRel > 1e-3 {
		t.Errorf("f32 vs f64 velocity profile max relative error %.3g > 1e-3", maxRel)
	}
}

// A reduced-precision simulation must round-trip through its State
// bit-stably: float32 -> float64 widening is exact, so capture and
// rebuild reproduce identical populations and identical subsequent
// trajectories.
func TestFloat32StateRoundtrip(t *testing.T) {
	p := WaterAir(6, 10, 6)
	p.Precision = F32
	s, err := NewSimOf[float32](p)
	if err != nil {
		t.Fatal(err)
	}
	advance(t, s, 10)
	st := s.State()

	r, err := SolverFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := r.(*SimOf[float32])
	if !ok {
		t.Fatalf("SolverFromState built %T, want *SimOf[float32]", r)
	}
	if rs.StepCount() != s.StepCount() {
		t.Errorf("step count %d, want %d", rs.StepCount(), s.StepCount())
	}
	for c := 0; c < p.NComp(); c++ {
		for x := 0; x < p.NX; x++ {
			a, b := s.Plane(c, x), rs.Plane(c, x)
			for i := range a {
				if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
					t.Fatalf("comp %d plane %d index %d: %v != %v after roundtrip", c, x, i, a[i], b[i])
				}
			}
		}
	}
	// And the trajectories stay identical.
	advance(t, s, 5)
	advance(t, rs, 5)
	for c := 0; c < p.NComp(); c++ {
		a, b := s.Plane(c, 3), rs.Plane(c, 3)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("trajectories diverged at comp %d index %d", c, i)
			}
		}
	}
}
