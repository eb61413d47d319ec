package field

import (
	"fmt"

	"microslip/internal/num"
)

// SlabOf stores the x-planes a worker currently owns, one independently
// allocated plane per lattice x-index. Because each plane is its own
// slice, migrating a plane between neighbouring workers is a slice
// handoff (or a single contiguous network write), which is exactly the
// unit of transfer used by the dynamic remapping schemes: the minimal
// migration is one 2-D plane (Section 3.4 of the paper).
//
// A slab covers the global x-range [Start, Start+len(Planes)). Ghost
// planes received from neighbours are held separately by the runner.
//
// Internally the plane headers live in a deque: a backing array with
// slack on both ends, so the push/pop oscillation of dynamic remapping
// moves O(planes transferred) headers and allocates nothing in the
// steady state (the backing array grows geometrically and is then
// reused). Planes is the live window into that storage; treat it as
// read-only and re-read it after any Push/Pop.
type SlabOf[T num.Float] struct {
	NY, NZ, Q int // Q == 1 for scalar slabs
	Start     int // global x index of Planes[0]
	// Planes is the owned window, ascending x. It aliases the internal
	// deque storage: valid until the next Push/Pop, and must not be
	// appended to or resliced by callers.
	Planes [][]T

	buf [][]T // deque storage; Planes == buf[off : off+len(Planes)]
	off int
}

// Slab is the double-precision slab used by the parallel layer and all
// historical call sites.
type Slab = SlabOf[float64]

// NewSlabOf allocates a slab of T covering global x-range [start, start+count).
func NewSlabOf[T num.Float](ny, nz, q, start, count int) *SlabOf[T] {
	if ny <= 0 || nz <= 0 || q <= 0 || count < 0 {
		panic(fmt.Sprintf("field: invalid slab %dx%dx%d count %d", ny, nz, q, count))
	}
	s := &SlabOf[T]{NY: ny, NZ: nz, Q: q, Start: start, buf: make([][]T, count)}
	for i := range s.buf {
		s.buf[i] = make([]T, ny*nz*q)
	}
	s.Planes = s.buf
	return s
}

// NewSlab allocates a float64 slab covering global x-range [start, start+count).
func NewSlab(ny, nz, q, start, count int) *Slab { return NewSlabOf[float64](ny, nz, q, start, count) }

// PlaneSize returns the number of values in one plane.
func (s *SlabOf[T]) PlaneSize() int { return s.NY * s.NZ * s.Q }

// Count returns the number of planes currently owned.
func (s *SlabOf[T]) Count() int { return len(s.Planes) }

// End returns the exclusive global end index Start+Count().
func (s *SlabOf[T]) End() int { return s.Start + len(s.Planes) }

// Plane returns the plane at global x index gx.
func (s *SlabOf[T]) Plane(gx int) []T {
	return s.Planes[gx-s.Start]
}

// idx returns the within-plane index of (y, z, i).
func (s *SlabOf[T]) idx(y, z, i int) int { return (y*s.NZ+z)*s.Q + i }

// At returns value (y, z, i) within the plane at global x index gx.
func (s *SlabOf[T]) At(gx, y, z, i int) T {
	return s.Planes[gx-s.Start][s.idx(y, z, i)]
}

// Set stores value (y, z, i) within the plane at global x index gx.
func (s *SlabOf[T]) Set(gx, y, z, i int, v T) {
	s.Planes[gx-s.Start][s.idx(y, z, i)] = v
}

// PopLeft removes and returns the n leftmost planes; Start advances by n.
// The returned slice aliases deque storage: consume it before the next
// Push on this slab.
func (s *SlabOf[T]) PopLeft(n int) [][]T {
	if n < 0 || n > len(s.Planes) {
		panic(fmt.Sprintf("field: PopLeft(%d) from slab of %d planes", n, len(s.Planes)))
	}
	out := s.Planes[:n:n]
	count := len(s.Planes) - n
	s.off += n
	s.Planes = s.buf[s.off : s.off+count]
	s.Start += n
	return out
}

// PopRight removes and returns the n rightmost planes (in ascending x
// order). The returned slice aliases deque storage: consume it before
// the next Push on this slab.
func (s *SlabOf[T]) PopRight(n int) [][]T {
	if n < 0 || n > len(s.Planes) {
		panic(fmt.Sprintf("field: PopRight(%d) from slab of %d planes", n, len(s.Planes)))
	}
	k := len(s.Planes) - n
	out := s.Planes[k:len(s.Planes):len(s.Planes)]
	s.Planes = s.buf[s.off : s.off+k]
	return out
}

// PushLeft prepends planes (in ascending x order); Start retreats. The
// plane headers are copied into the deque, so the argument may be a
// caller-reused buffer.
func (s *SlabOf[T]) PushLeft(planes [][]T) {
	s.checkSizes(planes, "PushLeft")
	k := len(planes)
	if s.off < k {
		s.grow(k, 0)
	}
	copy(s.buf[s.off-k:s.off], planes)
	count := len(s.Planes) + k
	s.off -= k
	s.Planes = s.buf[s.off : s.off+count]
	s.Start -= k
}

// PushRight appends planes (in ascending x order). The plane headers
// are copied into the deque, so the argument may be a caller-reused
// buffer.
func (s *SlabOf[T]) PushRight(planes [][]T) {
	s.checkSizes(planes, "PushRight")
	k := len(planes)
	count := len(s.Planes)
	if s.off+count+k > len(s.buf) {
		s.grow(0, k)
	}
	copy(s.buf[s.off+count:s.off+count+k], planes)
	s.Planes = s.buf[s.off : s.off+count+k]
}

func (s *SlabOf[T]) checkSizes(planes [][]T, op string) {
	for _, p := range planes {
		if len(p) != s.PlaneSize() {
			panic(fmt.Sprintf("field: %s plane size %d, want %d", op, len(p), s.PlaneSize()))
		}
	}
}

// grow reallocates the deque storage with room for needL extra planes on
// the left and needR on the right, plus symmetric geometric slack so a
// sustained push/pop oscillation amortizes to zero allocations.
func (s *SlabOf[T]) grow(needL, needR int) {
	count := len(s.Planes)
	total := count + needL + needR
	slack := total
	if slack < 4 {
		slack = 4
	}
	buf := make([][]T, total+2*slack)
	off := slack + needL
	copy(buf[off:off+count], s.Planes)
	s.buf = buf
	s.off = off
	s.Planes = s.buf[s.off : s.off+count]
}
