package parlbm

import (
	"runtime"
	"sync"
	"testing"

	"microslip/internal/balance"
	"microslip/internal/lbm"
)

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A remapping group holds one lattice: once planes have migrated, what
// the ranks keep live — their slabs, the frames, the sweep scratch, one
// plane message each, and the payload buffers the transport pools —
// fits in 1.05x that sum. The pool is what the fabric's bounded lists
// can hold: in each of the two mailboxes carrying traffic, the leased
// plane message (the two leased frames are the ranks' received frames)
// and maxFree recycled buffers, none larger than a frame. A rank that
// kept the planes it sent pooled for itself, or its whole migration
// message staged, or a transport that kept every buffer of a migration
// burst, would hold up to twice the migrated volume on top. Checked
// under the local (filtered) and the global protocol, with rank 1
// reported twice as slow, at the last phase, while both ranks are
// parked in PostPhase with no message in flight. Each rank's density
// store (one density plane per owned plane and component) only grows,
// to at most its first plane count plus the planes it received, so the
// group's stores hold at most nx + moved density planes per component.
// On this lattice the allocator's page rounding of the plane objects
// takes about 4 of the 5 per cent.
func TestRemapHoldsOneLattice(t *testing.T) {
	const nx, ny, nz, ranks, phases = 64, 48, 16, 2, 6
	for _, pol := range []balance.Policy{balance.NewFiltered(ny * nz), balance.NewGlobal(ny * nz)} {
		t.Run(pol.Name, func(t *testing.T) {
			p := lbm.WaterAir(nx, ny, nz)
			opts := remapOptions(pol)
			opts.Phases = phases
			opts.PhaseTime = func(rank, planes, phase int) float64 {
				t := 0.01 * float64(planes)
				if rank == 1 {
					t *= 2
				}
				return t
			}
			var arrived sync.WaitGroup
			arrived.Add(ranks)
			measured := make(chan struct{})
			var grew int64
			before := heapAfterGC()
			opts.PostPhase = func(rank, phase, planes int, _ func() []float64) error {
				if phase != phases-1 {
					return nil
				}
				arrived.Done()
				arrived.Wait()
				if rank == 0 {
					grew = heapAfterGC() - before
					close(measured)
				}
				<-measured
				return nil
			}
			_, results, err := RunParallel(p, ranks, opts)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, r := range results {
				moved += r.PlanesSent
			}
			if moved == 0 {
				t.Fatal("no plane migrated; the run never remapped")
			}

			k := lbm.NewKernel(p)
			nc := p.NComp()
			perRank := 4*k.FrameLen() + // two frames packed, two received
				3*nc*(k.PlaneCells()+k.PlaneLen()) + // sweep rings
				nc*k.PlaneLen() // one plane message
			const maxFree = 4 // comm's bound on a mailbox's recycled buffers
			pooled := nc*k.PlaneLen() + maxFree*k.FrameLen()
			stores := nc * (nx + moved) * k.PlaneCells()
			held := 8 * (nc*nx*k.PlaneLen() + ranks*perRank + ranks*pooled + stores)
			t.Logf("live heap grew %d bytes after %d plane moves; held %d", grew, moved, held)
			if limit := 1.05 * float64(held); float64(grew) > limit {
				t.Errorf("live heap grew %d bytes after %d plane moves (%d bytes each), limit %.0f "+
					"(1.05 x %d for one lattice plus frames, scratch, density stores and pooled payloads)",
					grew, moved, 8*nc*k.PlaneLen(), limit, held)
			}
		})
	}
}
