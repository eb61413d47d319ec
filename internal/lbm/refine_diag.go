package lbm

import (
	"fmt"
	"math"

	"microslip/internal/num"
)

// Diagnostics of the refined solver, addressed in global fine
// coordinates. Rows owned by a fine slab read the slab directly; bulk
// rows are reconstructed from the coarse block by tensor-product
// 3-point Lagrange interpolation over the staggered coarse nodes —
// quadratic, hence exact on the parabolic channel profile the bulk
// carries. Velocities need no unit conversion: acoustic scaling keeps
// dx/dt identical across levels.

// slabAt maps a global fine row to the owning slab and its local row;
// ok is false for bulk rows.
func (r *refinedOf[T]) slabAt(y int) (s *SimOf[T], ly int, ok bool) {
	if y <= r.ml.D {
		return r.bot, y, true
	}
	if y0 := r.ml.TopSlabY0(); y >= r.p.NY-1-r.ml.D {
		return r.top, y - y0, true
	}
	return nil, 0, false
}

// lagrange3w returns the quadratic Lagrange weights for offset u from
// the first of three consecutive nodes.
func lagrange3w(u float64) [3]float64 {
	return [3]float64{(u - 1) * (u - 2) / 2, u * (2 - u), u * (u - 1) / 2}
}

// xNodes returns the three coarse x columns bracketing global fine
// plane x and their weights. Coarse column xc sits at fine position
// 2*xc + 0.5; the direction is periodic. Degenerate domains with
// fewer than three coarse columns fall back to the nearest column.
func (r *refinedOf[T]) xNodes(x int) ([3]int, [3]float64) {
	n := r.coarse.P.NX
	tx := (float64(x) - 0.5) / 2
	if n < 3 {
		j := wrapX(int(math.Round(tx)), n)
		return [3]int{j, j, j}, [3]float64{1, 0, 0}
	}
	i0 := int(math.Round(tx)) - 1
	u := tx - float64(i0)
	return [3]int{wrapX(i0, n), wrapX(i0+1, n), wrapX(i0+2, n)}, lagrange3w(u)
}

// yNodes returns the three coarse rows bracketing global fine row y
// (a bulk row) and their weights. Coarse row j sits at fine position
// 2*j + D - 4.5; the stencil is clamped to the fluid rows, ghost rows
// included — they are fresh after every composite step.
func (r *refinedOf[T]) yNodes(y int) ([3]int, [3]float64) {
	cny := r.coarse.P.NY
	ry := (float64(y) - float64(r.ml.D) + 4.5) / 2
	j0 := int(math.Round(ry)) - 1
	if j0 < 1 {
		j0 = 1
	}
	if j0 > cny-4 {
		j0 = cny - 4
	}
	return [3]int{j0, j0 + 1, j0 + 2}, lagrange3w(ry - float64(j0))
}

// zNodes returns the three coarse z columns bracketing global fine
// column z and their weights. Coarse column k sits at fine position
// 2*k - 0.5; the stencil is clamped to the fluid columns, degrading
// to linear or nearest-node interpolation when the coarse block is
// too thin for a quadratic stencil (tiny test grids only).
func (r *refinedOf[T]) zNodes(z int) ([3]int, [3]float64) {
	cnz := r.coarse.P.NZ
	rz := (float64(z) + 0.5) / 2
	switch fluid := cnz - 2; {
	case fluid < 2:
		return [3]int{1, 1, 1}, [3]float64{1, 0, 0}
	case fluid == 2:
		u := rz - 1
		return [3]int{1, 2, 2}, [3]float64{1 - u, u, 0}
	}
	k0 := int(math.Round(rz)) - 1
	if k0 < 1 {
		k0 = 1
	}
	if k0 > cnz-4 {
		k0 = cnz - 4
	}
	return [3]int{k0, k0 + 1, k0 + 2}, lagrange3w(rz - float64(k0))
}

// bulkInterp evaluates sample on the 27-node coarse stencil around
// global fine cell (x, y, z) and blends it with the tensor-product
// weights.
func (r *refinedOf[T]) bulkInterp(x, y, z int, sample func(xc, yc, zc int) float64) float64 {
	xi, xw := r.xNodes(x)
	yi, yw := r.yNodes(y)
	zi, zw := r.zNodes(z)
	var v float64
	for a := 0; a < 3; a++ {
		if xw[a] == 0 {
			continue
		}
		for b := 0; b < 3; b++ {
			if yw[b] == 0 {
				continue
			}
			for k := 0; k < 3; k++ {
				if zw[k] == 0 {
					continue
				}
				v += xw[a] * yw[b] * zw[k] * sample(xi[a], yi[b], zi[k])
			}
		}
	}
	return v
}

// Velocity returns the barycentric velocity at global fine (x, y, z).
func (r *refinedOf[T]) Velocity(x, y, z int) (ux, uy, uz float64) {
	if s, ly, ok := r.slabAt(y); ok {
		return s.Velocity(x, ly, z)
	}
	if z <= 0 || z >= r.p.NZ-1 {
		return 0, 0, 0
	}
	ux = r.bulkInterp(x, y, z, func(xc, yc, zc int) float64 {
		v, _, _ := r.coarse.Velocity(xc, yc, zc)
		return v
	})
	uy = r.bulkInterp(x, y, z, func(xc, yc, zc int) float64 {
		_, v, _ := r.coarse.Velocity(xc, yc, zc)
		return v
	})
	uz = r.bulkInterp(x, y, z, func(xc, yc, zc int) float64 {
		_, _, v := r.coarse.Velocity(xc, yc, zc)
		return v
	})
	return ux, uy, uz
}

// Density returns the mass density of component c at global fine
// (x, y, z).
func (r *refinedOf[T]) Density(c, x, y, z int) float64 {
	if s, ly, ok := r.slabAt(y); ok {
		return s.Density(c, x, ly, z)
	}
	if z <= 0 || z >= r.p.NZ-1 {
		return 0
	}
	return r.bulkInterp(x, y, z, func(xc, yc, zc int) float64 {
		return r.coarse.Density(c, xc, yc, zc)
	})
}

// DensityProfileY returns component c's density along global y at
// fixed (x, z), one value per fine row including the wall layers.
func (r *refinedOf[T]) DensityProfileY(c, x, z int) []float64 {
	out := make([]float64, r.p.NY)
	for y := 0; y < r.p.NY; y++ {
		out[y] = r.Density(c, x, y, z)
	}
	return out
}

// VelocityProfileY returns the streamwise velocity along global y at
// fixed (x, z).
func (r *refinedOf[T]) VelocityProfileY(x, z int) []float64 {
	out := make([]float64, r.p.NY)
	for y := 0; y < r.p.NY; y++ {
		ux, _, _ := r.Velocity(x, y, z)
		out[y] = ux
	}
	return out
}

// TotalMass returns the owned fine-equivalent mass of component c.
func (r *refinedOf[T]) TotalMass(c int) float64 {
	return r.ownedMassComp(c) * r.p.Components[c].Mass
}

// CheckFinite errors on the first NaN population of any block.
func (r *refinedOf[T]) CheckFinite() error {
	for i := 0; i < 3; i++ {
		s, _ := r.level(i)
		if err := s.CheckFinite(); err != nil {
			return fmt.Errorf("lbm: refined level %d: %w", i, err)
		}
	}
	return nil
}

// RefinedState is a serializable snapshot of a refined run: the
// global fine parameters, the refinement descriptor, and the three
// block snapshots. M0 persists the renormalization anchor so a resume
// applies the exact factor sequence of the uninterrupted run, which
// keeps refined checkpoints bit-stable.
type RefinedState struct {
	Params *Params
	Spec   RefineSpec
	Step   int
	// M0 is the per-component owned-mass anchor of the
	// renormalization; RawDrift the drift it has absorbed so far.
	M0, RawDrift []float64
	// Levels holds the bottom slab, top slab, and coarse block
	// snapshots, in that order.
	Levels [3]*State
}

// State captures a deep, double-precision snapshot.
func (r *refinedOf[T]) State() *RefinedState {
	return &RefinedState{
		Params:   r.p,
		Spec:     r.spec,
		Step:     r.step,
		M0:       append([]float64(nil), r.m0...),
		RawDrift: append([]float64(nil), r.rawDrift...),
		Levels:   [3]*State{r.bot.State(), r.top.State(), r.coarse.State()},
	}
}

// RefinedFromState reconstructs the refined solver matching
// st.Params.Precision from a snapshot. The per-block parameters are
// re-derived from the global parameters and the spec — never trusted
// from the snapshot — and the ghost rows are re-exchanged, which is a
// bit-level no-op on a post-exchange snapshot (see exchangeGhosts).
func RefinedFromState(st *RefinedState) (RefinedSolver, error) {
	if st == nil || st.Params == nil {
		return nil, fmt.Errorf("lbm: nil refined state")
	}
	if st.Params.Precision == F32 {
		return refinedFromStateOf[float32](st)
	}
	return refinedFromStateOf[float64](st)
}

func refinedFromStateOf[T num.Float](st *RefinedState) (*refinedOf[T], error) {
	bp, tp, cp, err := levelParamsChecked(st.Params, st.Spec)
	if err != nil {
		return nil, err
	}
	lvp := [3]*Params{bp, tp, cp}
	var sims [3]*SimOf[T]
	for i, ls := range st.Levels {
		if ls == nil {
			return nil, fmt.Errorf("lbm: refined state missing level %d", i)
		}
		sims[i], err = SimFromState[T](&State{Params: lvp[i], Step: ls.Step, F: ls.F})
		if err != nil {
			return nil, fmt.Errorf("lbm: refined level %d: %w", i, err)
		}
	}
	r, err := assembleRefined(st.Params, st.Spec, sims[0], sims[1], sims[2])
	if err != nil {
		return nil, err
	}
	r.step = st.Step
	nc := st.Params.NComp()
	switch {
	case len(st.M0) == 0:
		// Hand-assembled snapshot without an anchor: re-anchor here.
		for c := range r.m0 {
			r.m0[c] = r.ownedMassComp(c)
		}
	case len(st.M0) == nc:
		copy(r.m0, st.M0)
	default:
		return nil, fmt.Errorf("lbm: refined state has %d mass anchors for %d components", len(st.M0), nc)
	}
	if len(st.RawDrift) == nc {
		copy(r.rawDrift, st.RawDrift)
	} else if len(st.RawDrift) != 0 {
		return nil, fmt.Errorf("lbm: refined state has %d drift entries for %d components", len(st.RawDrift), nc)
	}
	r.exchangeGhosts()
	return r, nil
}
