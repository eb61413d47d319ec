// Package field provides flat-array storage for three-dimensional
// distribution-function fields, plus x-plane (slab) views used by the
// slice domain decomposition.
//
// Layout: population i at (x, y, z) maps to (((x*NY)+y)*NZ+z)*Q + i, so
// a fixed-x plane is one contiguous block of NY*NZ*Q values. Contiguous
// x-planes make halo exchange and lattice-point migration simple copies.
//
// The storage types are generic over the solver's scalar precision
// (num.Float). The float64 instantiations keep their historical names
// (Dist3D, Slab) via aliases, so the double-precision parallel layer is
// untouched; the float32 instantiations back the reduced-precision
// sequential core.
package field

import (
	"fmt"

	"microslip/internal/num"
)

// Dist3DOf is a dense NX x NY x NZ x Q distribution-function field of T.
type Dist3DOf[T num.Float] struct {
	NX, NY, NZ, Q int
	Data          []T
}

// Dist3D is the double-precision distribution field used by the parallel
// layer and all historical call sites.
type Dist3D = Dist3DOf[float64]

// NewDist3DOf allocates a zeroed distribution field of T with Q velocities.
func NewDist3DOf[T num.Float](nx, ny, nz, q int) *Dist3DOf[T] {
	if nx <= 0 || ny <= 0 || nz <= 0 || q <= 0 {
		panic(fmt.Sprintf("field: invalid dimensions %dx%dx%dx%d", nx, ny, nz, q))
	}
	return &Dist3DOf[T]{NX: nx, NY: ny, NZ: nz, Q: q, Data: make([]T, nx*ny*nz*q)}
}

// NewDist3D allocates a zeroed float64 distribution field.
func NewDist3D(nx, ny, nz, q int) *Dist3D { return NewDist3DOf[float64](nx, ny, nz, q) }

// Idx returns the flat index of population i at (x, y, z).
func (f *Dist3DOf[T]) Idx(x, y, z, i int) int {
	return (((x*f.NY)+y)*f.NZ+z)*f.Q + i
}

// At returns population i at (x, y, z).
func (f *Dist3DOf[T]) At(x, y, z, i int) T { return f.Data[f.Idx(x, y, z, i)] }

// Set stores population i at (x, y, z).
func (f *Dist3DOf[T]) Set(x, y, z, i int, v T) { f.Data[f.Idx(x, y, z, i)] = v }

// Cell returns the contiguous Q-slice of populations at (x, y, z).
func (f *Dist3DOf[T]) Cell(x, y, z int) []T {
	base := (((x*f.NY)+y)*f.NZ + z) * f.Q
	return f.Data[base : base+f.Q]
}

// PlaneSize returns the number of values in one fixed-x plane (NY*NZ*Q).
func (f *Dist3DOf[T]) PlaneSize() int { return f.NY * f.NZ * f.Q }

// Plane returns the contiguous slice backing the fixed-x plane at x.
func (f *Dist3DOf[T]) Plane(x int) []T {
	p := f.PlaneSize()
	return f.Data[x*p : (x+1)*p]
}

// Clone returns a deep copy.
func (f *Dist3DOf[T]) Clone() *Dist3DOf[T] {
	c := NewDist3DOf[T](f.NX, f.NY, f.NZ, f.Q)
	copy(c.Data, f.Data)
	return c
}

// TotalMass returns the sum of all populations (the total mass when the
// molecular mass is 1). The accumulation is always double precision so
// the diagnostic does not lose mass to summation order at float32.
func (f *Dist3DOf[T]) TotalMass() float64 {
	var m float64
	for _, v := range f.Data {
		m += float64(v)
	}
	return m
}
