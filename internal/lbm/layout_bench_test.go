package lbm

import (
	"testing"
)

// benchFused measures the fused stepping path on the paper's 200x100x20
// preset, reporting MLUPS alongside ns/op; with -cpuprofile /
// -memprofile it is the way to profile the kernel.
func benchFused[T interface{ float32 | float64 }](b *testing.B) {
	p := WaterAir(200, 100, 20)
	if _, ok := any(*new(T)).(float32); ok {
		p.Precision = F32
	}
	s, err := NewSimOf[T](p)
	if err != nil {
		b.Fatal(err)
	}
	s.SetWorkers(1)
	advance(b, s, 4)
	mlups := float64(p.NX*p.NY*p.NZ) / 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(b, s, 1)
	}
	b.StopTimer()
	b.ReportMetric(mlups/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "MLUPS")
}

func BenchmarkFusedStepAoS(b *testing.B)    { benchFused[float64](b) }
func BenchmarkFusedStepAoSF32(b *testing.B) { benchFused[float32](b) }

// benchCollide isolates the collision kernel on the paper-sized plane:
// densities are computed once, then the collision alone is timed over
// every x-plane, without streaming in the picture.
func benchCollide[T interface{ float32 | float64 }](b *testing.B) {
	p := WaterAir(200, 100, 20)
	if _, ok := any(*new(T)).(float32); ok {
		p.Precision = F32
	}
	s, err := NewSimOf[T](p)
	if err != nil {
		b.Fatal(err)
	}
	s.SetWorkers(1)
	advance(b, s, 2) // develops flow
	k, nc := s.K, p.NComp()
	n := newPlanes[T](p.NX, nc, k.PlaneCells())
	post := newPlanes[T](1, nc, k.PlaneLen())[0]
	for x := 0; x < p.NX; x++ {
		k.Densities(s.fView[x], n[x])
	}
	sc := k.NewScratch()
	mlups := float64(p.NX*p.NY*p.NZ) / 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := 0; x < p.NX; x++ {
			l, r := wrapX(x-1, p.NX), wrapX(x+1, p.NX)
			k.CollideScratch(sc, n[l], n[x], n[r], s.fView[x], post)
		}
	}
	b.StopTimer()
	b.ReportMetric(mlups/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "MLUPS")
}

func BenchmarkCollideAoS(b *testing.B)    { benchCollide[float64](b) }
func BenchmarkCollideAoSF32(b *testing.B) { benchCollide[float32](b) }
