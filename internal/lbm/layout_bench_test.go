package lbm

import (
	"testing"
)

// benchFusedLayout measures the fused stepping path on the paper's
// 200x100x20 preset in one layout, reporting MLUPS alongside ns/op.
// Running the AoS and SoA benchmarks back to back is the quickest
// kernel-level answer to "did a change shift the layout tradeoff?",
// and with -cpuprofile / -memprofile the way to profile the kernel.
func benchFusedLayout[T interface{ float32 | float64 }](b *testing.B, layout Layout) {
	p := WaterAir(200, 100, 20)
	p.Layout = layout
	if _, ok := any(*new(T)).(float32); ok {
		p.Precision = F32
	}
	s, err := NewSimOf[T](p)
	if err != nil {
		b.Fatal(err)
	}
	s.SetWorkers(1)
	s.RunParallelSteps(4)
	mlups := float64(p.NX*p.NY*p.NZ) / 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunParallelSteps(1)
	}
	b.StopTimer()
	b.ReportMetric(mlups/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "MLUPS")
}

func BenchmarkFusedStepAoS(b *testing.B)    { benchFusedLayout[float64](b, AoS) }
func BenchmarkFusedStepSoA(b *testing.B)    { benchFusedLayout[float64](b, SoA) }
func BenchmarkFusedStepAoSF32(b *testing.B) { benchFusedLayout[float32](b, AoS) }
func BenchmarkFusedStepSoAF32(b *testing.B) { benchFusedLayout[float32](b, SoA) }

// benchCollideLayout isolates the collision kernel on the paper-sized
// plane: densities (and, for SoA, the momentum lanes the sweep harvests
// with them) are computed once, then the collision alone is timed over
// every x-plane. The AoS/SoA pairs bound the layout cost of collision
// without streaming in the picture — the number the float32 pass-fusion
// in collideScratchSoA is accountable to.
func benchCollideLayout[T interface{ float32 | float64 }](b *testing.B, layout Layout) {
	p := WaterAir(200, 100, 20)
	p.Layout = layout
	if _, ok := any(*new(T)).(float32); ok {
		p.Precision = F32
	}
	s, err := NewSimOf[T](p)
	if err != nil {
		b.Fatal(err)
	}
	s.SetWorkers(1)
	s.RunParallelSteps(2) // develops flow
	k, nc, cells := s.K, p.NComp(), s.K.PlaneCells()
	n := newPlanes[T](p.NX, nc, cells)
	post := newPlanes[T](1, nc, k.PlaneLen())[0]
	mom := make([][][3][]T, p.NX)
	for x := 0; x < p.NX; x++ {
		if s.soa {
			mom[x] = make([][3][]T, nc)
			for c := range mom[x] {
				for a := range mom[x][c] {
					mom[x][c][a] = make([]T, cells)
				}
			}
			k.DensitiesMomentsSoA(s.fView[x], n[x], mom[x])
		} else {
			k.Densities(s.fView[x], n[x])
		}
	}
	sc := k.NewScratch()
	mlups := float64(p.NX*p.NY*p.NZ) / 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := 0; x < p.NX; x++ {
			l, r := wrapX(x-1, p.NX), wrapX(x+1, p.NX)
			if s.soa {
				k.collideScratchSoA(sc, n[l], n[x], n[r], s.fView[x], post, mom[x])
			} else {
				k.CollideScratch(sc, n[l], n[x], n[r], s.fView[x], post)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(mlups/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "MLUPS")
}

func BenchmarkCollideAoS(b *testing.B)    { benchCollideLayout[float64](b, AoS) }
func BenchmarkCollideSoA(b *testing.B)    { benchCollideLayout[float64](b, SoA) }
func BenchmarkCollideAoSF32(b *testing.B) { benchCollideLayout[float32](b, AoS) }
func BenchmarkCollideSoAF32(b *testing.B) { benchCollideLayout[float32](b, SoA) }
