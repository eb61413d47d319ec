package checkpoint

import "testing"

// benchRank is rank 0 of a 2-rank paper-size run: a 100-plane half-slab
// of the 200x100x20 two-component lattice, distributions and densities
// (64 MB), with values that exercise every mantissa byte.
func benchRank() (*RankState, *Manifest) {
	const count, cells, nc = 100, 100 * 20, 2
	rs := &RankState{Phase: 8, Planes: make([][][]float64, nc), Density: make([][][]float64, nc)}
	fill := func(n, seed int) []float64 {
		pl := make([]float64, n)
		for j := range pl {
			pl[j] = 1 / float64(3+seed+j)
		}
		return pl
	}
	for c := 0; c < nc; c++ {
		for i := 0; i < count; i++ {
			rs.Planes[c] = append(rs.Planes[c], fill(cells*19, c+i))
			rs.Density[c] = append(rs.Density[c], fill(cells, c+i))
		}
	}
	m := &Manifest{Phase: 8, NX: count, NComp: nc, PlaneSize: cells * 19,
		Ranks: []RankRange{{Rank: 0, Start: 0, Count: count}}}
	return rs, m
}

func (rs *RankState) payloadBytes() int64 {
	return int64(8 * len(rs.Planes) * rs.Count() * (len(rs.Planes[0][0]) + len(rs.Density[0][0])))
}

func BenchmarkSaveRank(b *testing.B) {
	rs, _ := benchRank()
	dir := b.TempDir()
	b.SetBytes(rs.payloadBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveRank(dir, rs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadRun(b *testing.B) {
	rs, m := benchRank()
	dir := b.TempDir()
	if err := SaveRank(dir, rs); err != nil {
		b.Fatal(err)
	}
	if err := Commit(dir, m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(rs.payloadBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadRun(dir, m); err != nil {
			b.Fatal(err)
		}
	}
}
