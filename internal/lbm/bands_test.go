package lbm

import "testing"

// planBands must partition the planes exactly once, keep bands
// contiguous and non-empty, and agree with bandCountFor.
func TestPlanBandsPartition(t *testing.T) {
	for _, tc := range []struct{ nx, req, reach int }{
		{12, 1, 1}, {12, 2, 1}, {12, 3, 2}, {12, 8, 2}, {12, 12, 2},
		{7, 3, 1}, {2, 2, 2}, {3, 3, 2}, {1, 4, 2}, {400, 8, 2},
	} {
		p := planBands(tc.nx, tc.req, tc.reach)
		if got := len(p.bands); got != bandCountFor(tc.nx, tc.req) {
			t.Errorf("nx=%d req=%d: %d bands, bandCountFor says %d", tc.nx, tc.req, got, bandCountFor(tc.nx, tc.req))
		}
		next := 0
		for w, b := range p.bands {
			if b[0] != next || b[1] <= b[0] || b[1] > tc.nx {
				t.Fatalf("nx=%d req=%d: band %d = %v not contiguous from %d", tc.nx, tc.req, w, b, next)
			}
			next = b[1]
		}
		if next != tc.nx {
			t.Errorf("nx=%d req=%d: bands cover [0,%d), want [0,%d)", tc.nx, tc.req, next, tc.nx)
		}
	}
}

// Dependency sets must contain exactly the owners of the planes within
// reach of each band's boundaries, never the band itself, and must be
// symmetric — the property the token mesh's edge matching relies on.
func TestPlanBandsDeps(t *testing.T) {
	for _, tc := range []struct{ nx, req, reach int }{
		{12, 3, 1}, {12, 6, 2}, {12, 12, 2}, {5, 5, 2}, {2, 2, 2}, {3, 3, 2}, {16, 4, 1},
	} {
		p := planBands(tc.nx, tc.req, tc.reach)
		owner := make([]int, tc.nx)
		for w, b := range p.bands {
			for x := b[0]; x < b[1]; x++ {
				owner[x] = w
			}
		}
		for w, b := range p.bands {
			want := map[int]bool{}
			for r := 1; r <= tc.reach; r++ {
				for _, x := range []int{b[0] - r, b[1] - 1 + r} {
					if j := owner[wrapX(x, tc.nx)]; j != w {
						want[j] = true
					}
				}
			}
			if len(want) != len(p.deps[w]) {
				t.Fatalf("nx=%d req=%d reach=%d: band %d deps %v, want %v", tc.nx, tc.req, tc.reach, w, p.deps[w], want)
			}
			for _, j := range p.deps[w] {
				if !want[j] {
					t.Fatalf("nx=%d req=%d reach=%d: band %d has spurious dep %d", tc.nx, tc.req, tc.reach, w, j)
				}
				sym := false
				for _, back := range p.deps[j] {
					if back == w {
						sym = true
					}
				}
				if !sym {
					t.Fatalf("nx=%d req=%d reach=%d: dep %d->%d not symmetric", tc.nx, tc.req, tc.reach, w, j)
				}
			}
		}
	}
}

// The chunk floor: grids without at least minBandPlanes planes per
// band take the sequential fast path no matter how many workers are
// requested, on both stepping paths, while the explicit overrides
// still pin any banding.
func TestBandFloorSequentialFastPath(t *testing.T) {
	p := WaterAir(12, 8, 6) // 12 planes < 2*minBandPlanes
	p.Fused = true
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(8)
	if got := s.bandCount(); got != 1 {
		t.Errorf("12 planes, 8 workers: phase bandCount %d, want 1", got)
	}
	if got := s.fusedChunkCount(); got != 1 {
		t.Errorf("12 planes, 8 workers: fused band count %d, want 1", got)
	}
	s.StepParallel()
	if s.fused.pool != nil {
		t.Error("tiny grid built a fused worker pool; want inline sweep")
	}
	// usableBands also caps by CPUs and keeps the floor of one.
	if got := usableBands(8, 64, 2); got != 2 {
		t.Errorf("usableBands(8, 64, 2) = %d, want 2 (CPU cap)", got)
	}
	if got := usableBands(8, 64, 16); got != 4 {
		t.Errorf("usableBands(8, 64, 16) = %d, want 4 (plane floor)", got)
	}
	if got := usableBands(8, 4, 16); got != 1 {
		t.Errorf("usableBands(8, 4, 16) = %d, want 1", got)
	}
	// The overrides bypass the floor.
	s.SetBands(6)
	if got := s.bandCount(); got != 6 {
		t.Errorf("SetBands(6): bandCount %d", got)
	}
	s.SetBands(100)
	if got := s.bandCount(); got != 12 {
		t.Errorf("SetBands(100) on 12 planes: bandCount %d, want 12", got)
	}
	s.SetBands(0)
	if got := s.bandCount(); got != 1 {
		t.Errorf("override cleared: bandCount %d, want 1", got)
	}
}
