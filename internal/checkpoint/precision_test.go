package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"microslip/internal/lbm"
)

// A reduced-precision snapshot must survive the compact f32 payload
// bit-stably: capture, save, load, rebuild, and the populations and
// subsequent trajectory are identical to the never-checkpointed run.
// The compact payload should also actually be compact — 4 bytes per
// value, half the double-precision container's 8.
func TestFloat32CheckpointRoundtrip(t *testing.T) {
	p32 := lbm.WaterAir(6, 8, 6)
	p32.Precision = lbm.F32
	s, err := lbm.NewSolver(p32)
	if err != nil {
		t.Fatal(err)
	}
	advance(t, s, 6)

	var buf bytes.Buffer
	if err := Save(&buf, s.State()); err != nil {
		t.Fatal(err)
	}
	st, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := lbm.SolverFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := r.(*lbm.SimOf[float32])
	if !ok {
		t.Fatalf("resumed solver is %T, want *SimOf[float32]", r)
	}
	ss := s.(*lbm.SimOf[float32])
	planesBitEqual32 := func(label string) {
		t.Helper()
		for c := 0; c < p32.NComp(); c++ {
			for x := 0; x < p32.NX; x++ {
				a, b := ss.Plane(c, x), rs.Plane(c, x)
				for i := range a {
					if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
						t.Fatalf("%s: comp %d plane %d index %d: %v != %v", label, c, x, i, b[i], a[i])
					}
				}
			}
		}
	}
	planesBitEqual32("after roundtrip")
	advance(t, ss, 4)
	advance(t, rs, 4)
	planesBitEqual32("after resumed steps")

	// The f32 payload is about half the f64 one for the same state.
	p64 := lbm.WaterAir(6, 8, 6)
	s64, err := lbm.NewSolver(p64)
	if err != nil {
		t.Fatal(err)
	}
	advance(t, s64, 6)
	var buf64 bytes.Buffer
	if err := Save(&buf64, s64.State()); err != nil {
		t.Fatal(err)
	}
	// Closed form: fixed-width words cost exactly 4 bytes per population
	// at f32 and 8 at f64; everything else is the framed header.
	values := 2 * p32.NX * p32.NY * p32.NZ * 19
	for _, f := range []struct {
		name  string
		raw   []byte
		width int
	}{{"f32", buf.Bytes(), 4}, {"f64", buf64.Bytes(), 8}} {
		hlen := int(binary.BigEndian.Uint32(f.raw[6:]))
		if got := len(f.raw) - frameLen - hlen; got != f.width*values {
			t.Errorf("%s container holds %d bytes of planes, want %d x %d values", f.name, got, f.width, values)
		}
		if hlen > 4096 {
			t.Errorf("%s container has a %d-byte header", f.name, hlen)
		}
	}
}

// advance steps s n steps on the production path (RunSupervised with no
// supervisor), failing t if a worker panicked.
func advance(t *testing.T, s lbm.Stepper, n int) {
	t.Helper()
	if _, err := s.RunSupervised(n, nil); err != nil {
		t.Fatal(err)
	}
}
