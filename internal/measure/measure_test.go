package measure

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// poiseuilleProfile samples u(d) = g/(2 nu) d (H - d) with an optional
// Navier slip length b: u(d) = g/(2 nu) (d (H - d) + b H).
func poiseuilleProfile(h, g, nu, b float64, n int) *Profile {
	dist := make([]float64, n)
	u := make([]float64, n)
	for i := 0; i < n; i++ {
		d := (float64(i) + 0.5) * h / 2 / float64(n) // sample the near half
		dist[i] = d
		u[i] = g / (2 * nu) * (d*(h-d) + b*h)
	}
	p, err := NewProfile(dist, u)
	if err != nil {
		panic(err)
	}
	return p
}

func TestNewProfileValidation(t *testing.T) {
	if _, err := NewProfile([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewProfile([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("too-short profile accepted")
	}
	if _, err := NewProfile([]float64{1, 1, 2}, []float64{0, 0, 0}); err == nil {
		t.Error("non-ascending distances accepted")
	}
	if _, err := NewProfile([]float64{0, 1, 2}, []float64{0, 0, 0}); err == nil {
		t.Error("zero first distance accepted")
	}
}

func TestNoSlipProfileHasZeroSlipLength(t *testing.T) {
	p := poiseuilleProfile(40, 1e-6, 0.1, 0, 20)
	b, err := p.SlipLength(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b) > 0.15 {
		t.Errorf("no-slip profile measured slip length %v lattice units", b)
	}
}

// Property: for profiles with a known Navier slip length, the measured
// slip length recovers it (the curvature over the near-wall samples
// introduces a small positive bias bounded by the sample spacing).
func TestSlipLengthRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 20 + rng.Float64()*60
		b := rng.Float64() * 10
		p := poiseuilleProfile(h, 1e-6, 0.05+rng.Float64(), b, 30)
		got, err := p.SlipLength(3)
		if err != nil {
			return false
		}
		// Tolerance: half a sample spacing plus 10%.
		tol := 0.5*p.Dist[0]*2 + 0.1*b + 0.2
		return math.Abs(got-b) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFitWallExact(t *testing.T) {
	// A perfectly linear profile is fit exactly.
	p, err := NewProfile([]float64{1, 2, 3, 4}, []float64{3, 5, 7, 9}) // u = 1 + 2d
	if err != nil {
		t.Fatal(err)
	}
	fit, err := p.FitWall(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.UWall-1) > 1e-12 || math.Abs(fit.Shear-2) > 1e-12 {
		t.Errorf("fit = %+v, want UWall 1 Shear 2", fit)
	}
	if _, err := p.FitWall(1); err == nil {
		t.Error("single-sample fit accepted")
	}
	if _, err := p.FitWall(9); err == nil {
		t.Error("oversized fit accepted")
	}
}

func TestFlatProfileSlipErrors(t *testing.T) {
	p, _ := NewProfile([]float64{1, 2, 3}, []float64{1, 1, 1})
	if _, err := p.SlipLength(3); err == nil {
		t.Error("flat profile produced a slip length")
	}
}
