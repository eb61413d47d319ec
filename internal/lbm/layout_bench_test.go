package lbm

import (
	"testing"
	"unsafe"
)

// sweepBytesPerCell is the traffic one fused step of s must move per
// lattice cell: every population read once and written once and, when
// the bands keep density stores, each cell's densities read and written
// once. The rings and frames are cache-resident and not counted.
func sweepBytesPerCell[T float32 | float64](s *SimOf[T]) float64 {
	k := s.K
	values := k.PlaneLen()
	if s.bands.slabs[0].store {
		values += k.PlaneCells()
	}
	var zero T
	return float64(2*k.NComp*values*int(unsafe.Sizeof(zero))) / float64(k.PlaneCells())
}

// benchFused measures the fused stepping path on the paper's 200x100x20
// preset, reporting MLUPS alongside ns/op, the step's compulsory
// traffic per cell (B/cell) and the rate that traffic reaches as a
// percentage of the single-thread triad at the lattice's footprint
// (pct_of_triad, see BenchmarkTriad); with -cpuprofile / -memprofile it
// is the way to profile the kernel.
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
	rate := mlups / (float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1e9)
	perCell := sweepBytesPerCell(s)
	b.ReportMetric(rate, "MLUPS")
	b.ReportMetric(perCell, "B/cell")
	var zero T
	footprint := p.NX * p.NComp() * s.K.PlaneLen() * int(unsafe.Sizeof(zero))
	b.ReportMetric(100*rate*1e6*perCell/1e9/footprintTriad(footprint), "pct_of_triad")
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
