package lbm

import "testing"

// planBands must partition the planes exactly once into contiguous
// bands whose sizes differ by at most one plane, agree with
// bandCountFor, and keep every band of a multi-band plan at
// MinFramePlanes planes or more (requests beyond NX/2 are clamped).
func TestPlanBandsPartition(t *testing.T) {
	for _, tc := range []struct{ nx, req, want int }{
		{12, 1, 1}, {12, 2, 2}, {12, 3, 3}, {12, 8, 6}, {12, 12, 6},
		{7, 3, 3}, {2, 2, 1}, {3, 3, 1}, {1, 4, 1}, {5, 2, 2}, {400, 8, 8},
	} {
		bands := planBands(tc.nx, tc.req)
		if got := len(bands); got != tc.want || got != bandCountFor(tc.nx, tc.req) {
			t.Errorf("nx=%d req=%d: %d bands, want %d (bandCountFor says %d)",
				tc.nx, tc.req, got, tc.want, bandCountFor(tc.nx, tc.req))
		}
		next, lo, hi := 0, tc.nx, 0
		for w, b := range bands {
			if b[0] != next || b[1] <= b[0] || b[1] > tc.nx {
				t.Fatalf("nx=%d req=%d: band %d = %v not contiguous from %d", tc.nx, tc.req, w, b, next)
			}
			n := b[1] - b[0]
			lo, hi = min(lo, n), max(hi, n)
			next = b[1]
		}
		if next != tc.nx {
			t.Errorf("nx=%d req=%d: bands cover [0,%d), want [0,%d)", tc.nx, tc.req, next, tc.nx)
		}
		if hi-lo > 1 {
			t.Errorf("nx=%d req=%d: band sizes %d..%d differ by more than one", tc.nx, tc.req, lo, hi)
		}
		if len(bands) > 1 && lo < MinFramePlanes {
			t.Errorf("nx=%d req=%d: a %d-plane band, below the %d-plane floor", tc.nx, tc.req, lo, MinFramePlanes)
		}
	}
}

// The band floor: grids without at least minBandPlanes planes per band
// take the single-band path no matter how many workers are requested,
// while the explicit override still pins any banding down to the
// MinFramePlanes floor.
func TestBandFloorSequentialFastPath(t *testing.T) {
	p := WaterAir(12, 8, 6) // 12 planes < 2*minBandPlanes
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(8)
	if got := s.fusedChunkCount(); got != 1 {
		t.Errorf("12 planes, 8 workers: band count %d, want 1", got)
	}
	advance(t, s, 1)
	if s.bands.pool != nil {
		t.Error("tiny grid built a band worker pool; want inline sweep")
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
	// The override bypasses the heuristic but not the frame floor.
	s.SetFusedChunks(6)
	if got := s.fusedChunkCount(); got != 6 {
		t.Errorf("SetFusedChunks(6): band count %d", got)
	}
	s.SetFusedChunks(100)
	if got := s.fusedChunkCount(); got != 6 {
		t.Errorf("SetFusedChunks(100) on 12 planes: band count %d, want 6 (two-plane bands)", got)
	}
	s.SetFusedChunks(0)
	if got := s.fusedChunkCount(); got != 1 {
		t.Errorf("override cleared: band count %d, want 1", got)
	}
}
