package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScalar3DIndexing(t *testing.T) {
	s := NewScalar3DOf[float64](4, 3, 2)
	if len(s.Data) != 24 {
		t.Fatalf("len(Data) = %d, want 24", len(s.Data))
	}
	n := 0.0
	for x := 0; x < 4; x++ {
		for y := 0; y < 3; y++ {
			for z := 0; z < 2; z++ {
				s.Set(x, y, z, n)
				n++
			}
		}
	}
	// With this layout the flat data is exactly the fill order.
	for i, v := range s.Data {
		if v != float64(i) {
			t.Fatalf("Data[%d] = %v, want %v", i, v, i)
		}
	}
	if s.At(2, 1, 1) != float64(s.Idx(2, 1, 1)) {
		t.Errorf("At/Idx mismatch")
	}
}

func TestScalar3DPlaneIsContiguous(t *testing.T) {
	s := NewScalar3DOf[float64](5, 4, 3)
	for i := range s.Data {
		s.Data[i] = float64(i)
	}
	p := s.Plane(2)
	if len(p) != 12 {
		t.Fatalf("plane size = %d, want 12", len(p))
	}
	for y := 0; y < 4; y++ {
		for z := 0; z < 3; z++ {
			if p[y*3+z] != s.At(2, y, z) {
				t.Fatalf("plane[%d] != At(2,%d,%d)", y*3+z, y, z)
			}
		}
	}
	// Mutating the plane mutates the field (it is a view).
	p[0] = -1
	if s.At(2, 0, 0) != -1 {
		t.Error("plane is not a view into the field")
	}
}

func TestDist3DIndexing(t *testing.T) {
	f := NewDist3D(3, 2, 2, 19)
	f.Set(1, 1, 0, 7, 3.25)
	if f.At(1, 1, 0, 7) != 3.25 {
		t.Errorf("At = %v, want 3.25", f.At(1, 1, 0, 7))
	}
	c := f.Cell(1, 1, 0)
	if c[7] != 3.25 {
		t.Errorf("Cell[7] = %v, want 3.25", c[7])
	}
	if f.PlaneSize() != 2*2*19 {
		t.Errorf("PlaneSize = %d", f.PlaneSize())
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := NewDist3D(2, 2, 2, 9)
	f.Set(0, 0, 0, 0, 1)
	c := f.Clone()
	c.Set(0, 0, 0, 0, 2)
	if f.At(0, 0, 0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
	s := NewScalar3DOf[float64](2, 2, 2)
	s.Set(1, 1, 1, 5)
	sc := s.Clone()
	sc.Set(1, 1, 1, 6)
	if s.At(1, 1, 1) != 5 {
		t.Error("Scalar3D Clone shares storage with original")
	}
}

func TestSlabPushPop(t *testing.T) {
	s := NewSlab(2, 2, 1, 10, 5) // planes for x = 10..14
	for gx := 10; gx < 15; gx++ {
		s.Set(gx, 0, 0, 0, float64(gx))
	}
	left := s.PopLeft(2)
	if s.Start != 12 || s.Count() != 3 {
		t.Fatalf("after PopLeft: start %d count %d", s.Start, s.Count())
	}
	if left[0][0] != 10 || left[1][0] != 11 {
		t.Fatalf("PopLeft returned wrong planes: %v %v", left[0][0], left[1][0])
	}
	right := s.PopRight(1)
	if s.End() != 14 || right[0][0] != 14 {
		t.Fatalf("PopRight wrong: end %d plane %v", s.End(), right[0][0])
	}
	s.PushLeft(left)
	if s.Start != 10 || s.At(10, 0, 0, 0) != 10 || s.At(11, 0, 0, 0) != 11 {
		t.Fatalf("PushLeft wrong: start %d", s.Start)
	}
	s.PushRight(right)
	if s.End() != 15 || s.At(14, 0, 0, 0) != 14 {
		t.Fatalf("PushRight wrong: end %d", s.End())
	}
	// Full round trip preserved all planes in order.
	for gx := 10; gx < 15; gx++ {
		if s.At(gx, 0, 0, 0) != float64(gx) {
			t.Errorf("plane %d = %v", gx, s.At(gx, 0, 0, 0))
		}
	}
}

// Property: any sequence of pop/push round trips preserves the slab
// contents and the global coordinate mapping.
func TestSlabMigrationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 3 + rng.Intn(10)
		start := rng.Intn(100)
		s := NewSlab(2, 3, 4, start, count)
		for gx := start; gx < start+count; gx++ {
			for k := 0; k < s.PlaneSize(); k++ {
				s.Planes[gx-start][k] = float64(gx*1000 + k)
			}
		}
		for iter := 0; iter < 20; iter++ {
			n := rng.Intn(s.Count()) // keep at least one plane
			switch rng.Intn(4) {
			case 0:
				s.PushLeft(s.PopLeft(n))
			case 1:
				s.PushRight(s.PopRight(n))
			case 2:
				// Simulate shipping planes right: pop right, push back.
				p := s.PopRight(n)
				s.PushRight(p)
			case 3:
				p := s.PopLeft(n)
				s.PushLeft(p)
			}
		}
		if s.Start != start || s.Count() != count {
			return false
		}
		for gx := start; gx < start+count; gx++ {
			for k := 0; k < s.PlaneSize(); k++ {
				if s.Planes[gx-start][k] != float64(gx*1000+k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSlabPanicsOnBadSize(t *testing.T) {
	s := NewSlab(2, 2, 1, 0, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic pushing wrong-sized plane")
		}
	}()
	s.PushRight([][]float64{make([]float64, 3)})
}

func TestTotalMass(t *testing.T) {
	f := NewDist3D(2, 2, 1, 2)
	for i := range f.Data {
		f.Data[i] = 0.5
	}
	if got := f.TotalMass(); got != float64(len(f.Data))*0.5 {
		t.Errorf("TotalMass = %v", got)
	}
}

// The plane-migration oscillation — pop from one end, push the same
// count back — must stop allocating once the deque has grown its slack:
// this is the slab-side half of the zero-alloc remapping fast path.
func TestSlabPushPopZeroAllocSteadyState(t *testing.T) {
	s := NewSlab(3, 3, 2, 10, 6)
	spare := [][]float64{make([]float64, s.PlaneSize()), make([]float64, s.PlaneSize())}
	warm := func() {
		s.PushLeft(spare)
		copy(spare, s.PopRight(2))
		s.PushRight(spare)
		copy(spare, s.PopLeft(2))
	}
	for i := 0; i < 4; i++ {
		warm()
	}
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("push/pop oscillation: %v allocs/op, want 0", allocs)
	}
	if s.Start != 10 || s.Count() != 6 {
		t.Errorf("slab drifted to [%d,+%d)", s.Start, s.Count())
	}
}

// Popped plane headers stay usable until the next push, and pushing
// reuses the caller's header slice without retaining it.
func TestSlabPushCopiesHeaders(t *testing.T) {
	s := NewSlab(2, 2, 1, 0, 3)
	p0 := s.Plane(0)
	hdr := [][]float64{p0}
	s.PopLeft(1)
	s.PushLeft(hdr)
	hdr[0] = nil // caller reuses its buffer
	if s.Plane(0) == nil || &s.Plane(0)[0] != &p0[0] {
		t.Error("PushLeft did not copy the plane header into the deque")
	}
}
