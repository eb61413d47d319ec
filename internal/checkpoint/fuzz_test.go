package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"microslip/internal/lbm"
)

// tinyState is a hand-assembled snapshot small enough for a seed corpus:
// two components of three 5-value planes. The container does not care
// that no lattice has 5-value planes.
func tinyState(prec lbm.Precision) *lbm.State {
	p := lbm.WaterAir(3, 4, 4)
	p.Precision = prec
	st := &lbm.State{Params: p, Step: 9}
	for c := 0; c < 2; c++ {
		var comp [][]float64
		for x := 0; x < 3; x++ {
			comp = append(comp, []float64{0.5, 1.25, float64(c), float64(x), -3})
		}
		st.F = append(st.F, comp)
	}
	return st
}

// seedContainers returns one valid container of every kind: f64 state,
// f32 state, refined state, rank file, COMMIT marker.
func seedContainers(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(save func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	add(func(b *bytes.Buffer) error { return Save(b, tinyState(lbm.F64)) })
	add(func(b *bytes.Buffer) error { return Save(b, tinyState(lbm.F32)) })
	add(func(b *bytes.Buffer) error {
		st := tinyState(lbm.F64)
		return SaveRefined(b, &lbm.RefinedState{Params: st.Params, Spec: lbm.RefineSpec{Levels: 2, WallLayers: 4}, Step: 9,
			M0: []float64{1, 2}, RawDrift: []float64{0, 1e-16}, Levels: [3]*lbm.State{st, st, tinyState(lbm.F64)}})
	})
	dir := t.TempDir()
	if err := SaveRank(dir, makeRankState(3, 1, 2, 2, 2, 5)); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Phase: 3, NX: 4, NComp: 2, PlaneSize: 5, Params: lbm.WaterAir(4, 4, 4),
		Ranks: []RankRange{{Rank: 0, Start: 0, Count: 2}, {Rank: 1, Start: 2, Count: 2}}}
	if err := Commit(dir, m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{rankFile(1), CommitName} {
		raw, err := os.ReadFile(filepath.Join(PhaseDir(dir, 3), name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// FuzzReadContainer feeds arbitrary bytes to every loader — Load,
// LoadRefined, LoadRank and the COMMIT reader. None may panic, each may
// fail only with one of the package's typed errors, and none may
// allocate more than a small multiple of the input: a header declaring
// 2^40 planes in a 100-byte file has to fail before make.
func FuzzReadContainer(f *testing.F) {
	for _, raw := range seedContainers(f) {
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // truncated
		f.Add(raw[:len(raw)-3]) // truncated inside the trailer
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)*2/3] ^= 0x10
		f.Add(flipped)
		// Length-inflated, with valid CRCs.
		f.Add(reframe(f, raw, func(m *meta) { m.NComp = 1 << 40 }))
		f.Add(reframe(f, raw, func(m *meta) { m.Groups = append(m.Groups, group{1 << 40, 1 << 20, 8}) }))
		f.Add(reframe(f, raw, func(m *meta) {
			for i := range m.Groups {
				m.Groups[i].Planes = 1 << 40
			}
		}))
	}
	f.Add([]byte("MSCK\x00\x03 a version-3 gob payload"))
	f.Add([]byte("not a container"))

	dir := f.TempDir()
	pd := PhaseDir(dir, 1)
	if err := os.MkdirAll(pd, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{rankFile(0), CommitName} {
			if err := os.WriteFile(filepath.Join(pd, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, errState := Load(bytes.NewReader(data))
		_, errRefined := LoadRefined(bytes.NewReader(data))
		_, errRank := LoadRank(dir, 1, 0)
		_, errCommit := readManifest(pd)
		runtime.ReadMemStats(&after)

		ok := 0
		for _, err := range []error{errState, errRefined, errRank, errCommit} {
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrCorrupt), errors.Is(err, ErrVersion), errors.Is(err, ErrRefineMismatch):
			default:
				t.Errorf("untyped error: %v", err)
			}
		}
		if ok > 1 {
			t.Errorf("%d loaders accepted one file (state %v, refined %v, rank %v, commit %v)", ok, errState, errRefined, errRank, errCommit)
		}
		// Four loads, each reading the header, decoding it (gob builds
		// its decoder per call, a fixed cost), and holding the planes
		// once as float64 (twice the file for 4-byte words) beside their
		// slice headers.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4*8*len(data)); got > limit {
			t.Errorf("loaders allocated %d bytes on a %d-byte input, limit %d", got, len(data), limit)
		}
	})
}
