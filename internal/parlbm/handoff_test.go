package parlbm

import (
	"fmt"
	"testing"

	"microslip/internal/lbm"
)

// A parallel run can be checkpointed (via the gathered fields) and
// resumed sequentially: parallel(k) + sequential(m) == sequential(k+m).
func TestParallelToSequentialHandoff(t *testing.T) {
	p := lbm.WaterAir(12, 10, 6)
	const k, m = 6, 5

	fields, _, err := RunParallel(p, 3, Options{Phases: k})
	if err != nil {
		t.Fatal(err)
	}
	planes := make([][][]float64, len(fields))
	for c, f := range fields {
		planes[c] = make([][]float64, p.NX)
		for x := 0; x < p.NX; x++ {
			planes[c][x] = f.Plane(x)
		}
	}
	st, err := stateFromPlanes(p, planes, k)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := lbm.FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Run(m)

	want := sequentialReference(t, p, k+m)
	for c := range want {
		for x := 0; x < p.NX; x++ {
			got := resumed.Plane(c, x)
			ref := want[c].Plane(x)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("handoff diverged: comp %d plane %d index %d: %v != %v",
						c, x, i, got[i], ref[i])
				}
			}
		}
	}
	if resumed.StepCount() != k+m {
		t.Errorf("step count %d, want %d", resumed.StepCount(), k+m)
	}
}

func TestStateFromPlanesValidation(t *testing.T) {
	p := lbm.WaterAir(4, 8, 6)
	good := make([][][]float64, 2)
	for c := range good {
		good[c] = make([][]float64, p.NX)
		for x := range good[c] {
			good[c][x] = make([]float64, p.NY*p.NZ*19)
		}
	}
	if _, err := stateFromPlanes(p, good, 0); err != nil {
		t.Fatalf("valid planes rejected: %v", err)
	}
	if _, err := stateFromPlanes(p, good[:1], 0); err == nil {
		t.Error("component mismatch accepted")
	}
	short := [][][]float64{good[0][:2], good[1]}
	if _, err := stateFromPlanes(p, short, 0); err == nil {
		t.Error("plane-count mismatch accepted")
	}
	bad := [][][]float64{{make([]float64, 3)}, good[1]}
	bad[0] = append(bad[0], good[0][1:]...)
	if _, err := stateFromPlanes(p, bad, 0); err == nil {
		t.Error("plane-size mismatch accepted")
	}
}

// stateFromPlanes builds a snapshot from gathered distribution planes
// (planes[c][x], one slice per x-plane of each component), the format
// RunParallel's gather produces, so a sequential solver can resume a
// parallel run.
func stateFromPlanes(p *lbm.Params, planes [][][]float64, step int) (*lbm.State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(planes) != p.NComp() {
		return nil, fmt.Errorf("%d components of planes, want %d", len(planes), p.NComp())
	}
	want := p.NY * p.NZ * 19
	st := &lbm.State{Params: p, Step: step, F: make([][][]float64, len(planes))}
	for c := range planes {
		if len(planes[c]) != p.NX {
			return nil, fmt.Errorf("component %d has %d planes, want %d", c, len(planes[c]), p.NX)
		}
		st.F[c] = make([][]float64, p.NX)
		for x := range planes[c] {
			if len(planes[c][x]) != want {
				return nil, fmt.Errorf("component %d plane %d has %d values, want %d", c, x, len(planes[c][x]), want)
			}
			st.F[c][x] = append([]float64(nil), planes[c][x]...)
		}
	}
	return st, nil
}
