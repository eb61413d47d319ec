package lbm

import (
	"fmt"

	"microslip/internal/num"
)

// State is a serializable snapshot of a simulation: parameters, step
// count, and the per-component distribution planes. Package checkpoint
// persists it with encoding/gob so multi-day runs (the paper's full
// resolution needs 500,000 phases) can stop and resume.
type State struct {
	Params *Params
	Step   int
	// F[c][x] is component c's distribution plane at x.
	F [][][]float64
}

// State captures a deep snapshot of the simulation. Snapshots are
// always double precision in memory: widening float32 populations is
// exact, so a reduced-precision simulation round-trips through its
// State (and hence through a checkpoint) bit-stably.
func (s *SimOf[T]) State() *State {
	nc := s.P.NComp()
	st := &State{Params: s.P, Step: s.step, F: make([][][]float64, nc)}
	for c := 0; c < nc; c++ {
		st.F[c] = make([][]float64, s.P.NX)
		for x := 0; x < s.P.NX; x++ {
			plane := make([]float64, len(s.f[c][x]))
			for i, v := range s.f[c][x] {
				plane[i] = float64(v)
			}
			st.F[c][x] = plane
		}
	}
	return st
}

// FromState reconstructs a double-precision simulation from a snapshot;
// snapshots taken at Precision F32 must go through SimFromState (the
// generic form) or SolverFromState.
func FromState(st *State) (*Sim, error) {
	return SimFromState[float64](st)
}

// SimFromState reconstructs a simulation at precision T from a
// snapshot. T must agree with st.Params.Precision (see NewSimOf); the
// populations are rounded from the snapshot's double-precision planes,
// and solid cells are zeroed whatever the snapshot holds there.
func SimFromState[T num.Float](st *State) (*SimOf[T], error) {
	if st == nil || st.Params == nil {
		return nil, fmt.Errorf("lbm: nil state")
	}
	s, err := NewSimOf[T](st.Params)
	if err != nil {
		return nil, err
	}
	if len(st.F) != st.Params.NComp() {
		return nil, fmt.Errorf("lbm: state has %d components, params %d", len(st.F), st.Params.NComp())
	}
	for c := range st.F {
		if len(st.F[c]) != st.Params.NX {
			return nil, fmt.Errorf("lbm: component %d has %d planes, want %d", c, len(st.F[c]), st.Params.NX)
		}
		for x := range st.F[c] {
			if len(st.F[c][x]) != s.K.PlaneLen() {
				return nil, fmt.Errorf("lbm: component %d plane %d has %d values, want %d",
					c, x, len(st.F[c][x]), s.K.PlaneLen())
			}
			for i, v := range st.F[c][x] {
				s.f[c][x][i] = T(v)
			}
			s.K.ClearSolid(s.f[c][x])
		}
	}
	s.step = st.Step
	return s, nil
}
