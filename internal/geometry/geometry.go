// Package geometry describes the simulation domain: the hydrophobic
// microchannel of the paper (periodic along the flow direction x, solid
// walls bounding y and z) and general solid masks for obstacle flows.
//
// Walls are represented by a one-node layer of solid lattice points on
// each bounded face. With full-way bounce-back the effective no-slip
// plane sits halfway between the solid layer and the first fluid node,
// so wall distances are measured from those halfway planes.
package geometry

import (
	"fmt"
	"math"
)

// Channel is the paper's microchannel: x periodic (flow direction),
// y and z bounded by solid walls (y = side walls 1 um apart, z = top and
// bottom walls 0.1 um apart).
type Channel struct {
	NX, NY, NZ int
}

// NewChannel validates the dimensions and returns the channel geometry.
// NY and NZ must each leave at least one fluid node between the two
// one-node wall layers.
func NewChannel(nx, ny, nz int) Channel {
	if nx < 1 || ny < 3 || nz < 3 {
		panic(fmt.Sprintf("geometry: channel %dx%dx%d too small (need NY,NZ >= 3)", nx, ny, nz))
	}
	return Channel{NX: nx, NY: ny, NZ: nz}
}

// IsSolid reports whether lattice point (y, z) lies in a wall layer.
// The mask is independent of x, which keeps plane migration trivial.
func (c Channel) IsSolid(y, z int) bool {
	return y == 0 || y == c.NY-1 || z == 0 || z == c.NZ-1
}

// FluidCount returns the number of fluid nodes in one x-plane.
func (c Channel) FluidCount() int { return (c.NY - 2) * (c.NZ - 2) }

// WallDistanceY returns the distance (lattice units) from fluid node y to
// the nearest side-wall plane, and the inward normal direction (+1 means
// the near wall is at low y). The wall planes sit at y = 0.5 and
// y = NY-1.5.
func (c Channel) WallDistanceY(y int) (d float64, inward int) {
	dLow := float64(y) - 0.5
	dHigh := float64(c.NY-1) - 0.5 - float64(y)
	if dLow <= dHigh {
		return dLow, +1
	}
	return dHigh, -1
}

// WallForceProfile precomputes, for every (y, z), the hydrophobic wall
// force vector (Fy, Fz) with magnitude profile amp*exp(-d/decay) summed
// over both opposing walls, directed along the inward normals. This is
// the force T(x) of Section 2 of the paper: repulsive to the water
// component, neutral to the air component, decaying exponentially away
// from the walls. Solid nodes get zero force.
type WallForceProfile struct {
	NY, NZ int
	Fy, Fz []float64 // indexed y*NZ+z
}

// NewWallForceProfile builds the profile for the given channel, force
// amplitude amp and decay length decay (both in lattice units).
func NewWallForceProfile(c Channel, amp, decay float64) *WallForceProfile {
	if decay <= 0 {
		panic(fmt.Sprintf("geometry: non-positive wall force decay %v", decay))
	}
	p := &WallForceProfile{NY: c.NY, NZ: c.NZ,
		Fy: make([]float64, c.NY*c.NZ), Fz: make([]float64, c.NY*c.NZ)}
	for y := 0; y < c.NY; y++ {
		for z := 0; z < c.NZ; z++ {
			if c.IsSolid(y, z) {
				continue
			}
			// Sum contributions from both opposing walls so the force
			// vanishes by symmetry at the channel centerline.
			dyLow := float64(y) - 0.5
			dyHigh := float64(c.NY-1) - 0.5 - float64(y)
			dzLow := float64(z) - 0.5
			dzHigh := float64(c.NZ-1) - 0.5 - float64(z)
			i := y*c.NZ + z
			p.Fy[i] = amp * (math.Exp(-dyLow/decay) - math.Exp(-dyHigh/decay))
			p.Fz[i] = amp * (math.Exp(-dzLow/decay) - math.Exp(-dzHigh/decay))
		}
	}
	return p
}

// At returns the wall force vector at (y, z).
func (p *WallForceProfile) At(y, z int) (fy, fz float64) {
	i := y*p.NZ + z
	return p.Fy[i], p.Fz[i]
}

// WallForceWindow maps a sub-lattice (one level of a refined grid) onto
// the global fine channel, so the hydrophobic wall force can be
// evaluated at the node's true physical position rather than at its
// local index. Local node (y, z) sits at global fine coordinates
// (Y0 + Scale*y, Z0 + Scale*z); the wall planes are those of the global
// GlobalNY x GlobalNZ channel (at 0.5 and N-1.5 in fine units), and the
// decay length stays in fine units. Scale is also the acceleration
// rescaling dt_l^2/dx_l between the level and the fine lattice (2 for a
// factor-2 coarse level under acoustic scaling, 1 for a fine slab), so
// the stored profile is directly the level-local acceleration.
type WallForceWindow struct {
	GlobalNY, GlobalNZ int
	Y0, Z0             float64
	Scale              float64
}

// NewWallForceProfileWindow builds the wall force profile for a
// windowed sub-lattice c of the global channel described by w. With the
// identity window (Y0 = Z0 = 0, Scale = 1, global dims equal to c's)
// the computed distances match NewWallForceProfile's exactly, so the
// profiles are bit-identical.
func NewWallForceProfileWindow(c Channel, amp, decay float64, w WallForceWindow) *WallForceProfile {
	if decay <= 0 {
		panic(fmt.Sprintf("geometry: non-positive wall force decay %v", decay))
	}
	if w.Scale <= 0 || w.GlobalNY < 3 || w.GlobalNZ < 3 {
		panic(fmt.Sprintf("geometry: invalid wall force window %+v", w))
	}
	p := &WallForceProfile{NY: c.NY, NZ: c.NZ,
		Fy: make([]float64, c.NY*c.NZ), Fz: make([]float64, c.NY*c.NZ)}
	for y := 0; y < c.NY; y++ {
		for z := 0; z < c.NZ; z++ {
			if c.IsSolid(y, z) {
				continue
			}
			ypos := w.Y0 + w.Scale*float64(y)
			zpos := w.Z0 + w.Scale*float64(z)
			dyLow := ypos - 0.5
			dyHigh := float64(w.GlobalNY-1) - 0.5 - ypos
			dzLow := zpos - 0.5
			dzHigh := float64(w.GlobalNZ-1) - 0.5 - zpos
			i := y*c.NZ + z
			p.Fy[i] = w.Scale * amp * (math.Exp(-dyLow/decay) - math.Exp(-dyHigh/decay))
			p.Fz[i] = w.Scale * amp * (math.Exp(-dzLow/decay) - math.Exp(-dzHigh/decay))
		}
	}
	return p
}

// Mask is a general solid mask over (y, z) for obstacle geometries that
// remain x-independent (so that slice decomposition and plane migration
// stay valid). The channel walls are always solid; additional solids can
// be stamped in.
type Mask struct {
	NY, NZ int
	solid  []bool
}

// NewMask creates a mask with the channel walls of c marked solid.
func NewMask(c Channel) *Mask {
	m := &Mask{NY: c.NY, NZ: c.NZ, solid: make([]bool, c.NY*c.NZ)}
	for y := 0; y < c.NY; y++ {
		for z := 0; z < c.NZ; z++ {
			m.solid[y*c.NZ+z] = c.IsSolid(y, z)
		}
	}
	return m
}

// IsSolid reports whether (y, z) is solid.
func (m *Mask) IsSolid(y, z int) bool { return m.solid[y*m.NZ+z] }

// FluidCount returns the number of fluid nodes in one x-plane.
func (m *Mask) FluidCount() int {
	n := 0
	for _, s := range m.solid {
		if !s {
			n++
		}
	}
	return n
}

// StampRect marks the rectangle [y0,y1] x [z0,z1] solid (inclusive,
// clamped to the domain); used to build ribs/posts obstacle examples.
func (m *Mask) StampRect(y0, y1, z0, z1 int) {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	y0, y1 = clamp(y0, 0, m.NY-1), clamp(y1, 0, m.NY-1)
	z0, z1 = clamp(z0, 0, m.NZ-1), clamp(z1, 0, m.NZ-1)
	for y := y0; y <= y1; y++ {
		for z := z0; z <= z1; z++ {
			m.solid[y*m.NZ+z] = true
		}
	}
}
