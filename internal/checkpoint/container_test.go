package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"microslip/internal/geometry"
	"microslip/internal/lbm"
)

// saveBytes returns a valid container for a small simulation state.
func saveBytes(t *testing.T) []byte {
	t.Helper()
	p := lbm.SingleFluid(4, 6, 6, 1.0, 1e-6)
	s, err := lbm.NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	var buf bytes.Buffer
	if err := Save(&buf, s.State()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerHeader(t *testing.T) {
	raw := saveBytes(t)
	if !bytes.Equal(raw[:4], []byte("MSCK")) {
		t.Fatalf("magic = %q, want MSCK", raw[:4])
	}
	if raw[4] != 0 || raw[5] != Version {
		t.Fatalf("version bytes = %d %d, want 0 %d", raw[4], raw[5], Version)
	}
}

// TestLoadRejectsCorruptionWithTypedError cuts the file at every section
// boundary (and inside each section), flips a byte in each section, and
// inflates each declared length: all fail with ErrCorrupt, and only a
// foreign version word fails with ErrVersion.
func TestLoadRejectsCorruptionWithTypedError(t *testing.T) {
	raw := saveBytes(t)
	hlen := int(binary.BigEndian.Uint32(raw[6:]))
	bulk := prefixLen + hlen + 4 // offset of the first plane
	end := len(raw) - 4          // offset of the trailer crc

	type tc struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}
	cases := []tc{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrCorrupt},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }, ErrCorrupt},
		{"inflated header length", func(b []byte) []byte { b[6] = 0x7f; return b }, ErrCorrupt},
		{"future version", func(b []byte) []byte { b[5] = Version + 1; return b }, ErrVersion},
		{"version 3", func(b []byte) []byte { b[5] = 3; return b }, ErrVersion},
		{"version 3, header only", func(b []byte) []byte { b[5] = 3; return b[:10] }, ErrVersion},
	}
	// Each cut is named by the section it ends in, so the names stay
	// put when the gob header changes length.
	for _, c := range []struct {
		where string
		cut   int
	}{
		{"empty", 0}, {"after magic", 4}, {"inside version", 5}, {"after version", 6},
		{"inside header length", 8}, {"after header length", prefixLen}, {"inside header", prefixLen + hlen/2},
		{"after header", prefixLen + hlen}, {"inside header crc", bulk - 2}, {"after header crc", bulk},
		{"inside first plane", bulk + 8}, {"inside bulk", (bulk + end) / 2}, {"before trailer", end},
		{"inside trailer", end + 2},
	} {
		cases = append(cases, tc{"truncated " + c.where, func(b []byte) []byte { return b[:c.cut] }, ErrCorrupt})
	}
	for name, at := range map[string]int{"header length": 9, "header": prefixLen + hlen/2, "header crc": bulk - 1,
		"first plane": bulk, "bulk": (bulk + end) / 2, "last plane": end - 1, "trailer": end, "trailer end": end + 3} {
		cases = append(cases, tc{"flipped byte in " + name, func(b []byte) []byte { b[at] ^= 0x40; return b }, ErrCorrupt})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := append([]byte(nil), raw...)
			_, err := Load(bytes.NewReader(tc.mutate(cp)))
			if !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want errors.Is(%v)", err, tc.want)
			}
			// The two typed errors are distinguishable.
			other := ErrVersion
			if tc.want == ErrVersion {
				other = ErrCorrupt
			}
			if errors.Is(err, other) {
				t.Fatalf("Load error %v matches both typed errors", err)
			}
		})
	}
}

// reframe rebuilds a container around an edited header, with both CRCs
// valid: what a hostile or buggy writer could produce, and the only way
// past the header CRC to the length checks behind it.
func reframe(t testing.TB, raw []byte, edit func(*meta)) []byte {
	t.Helper()
	hlen := int(binary.BigEndian.Uint32(raw[6:]))
	var m meta
	if err := gob.NewDecoder(bytes.NewReader(raw[prefixLen : prefixLen+hlen])).Decode(&m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	return rewrap(t, raw, &m)
}

// rewrap rebuilds container raw around header hdr, encoded with gob,
// with both CRCs valid.
func rewrap(t testing.TB, raw []byte, hdr any) []byte {
	t.Helper()
	hlen := int(binary.BigEndian.Uint32(raw[6:]))
	var out bytes.Buffer
	out.Write(raw[:prefixLen])
	if err := gob.NewEncoder(&out).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(out.Bytes()[6:], uint32(out.Len()-prefixLen))
	crc := crc32.NewIEEE()
	crc.Write(out.Bytes())
	out.Write(binary.BigEndian.AppendUint32(nil, crc.Sum32()))
	planes := raw[prefixLen+hlen+4 : len(raw)-4]
	crc.Write(planes)
	out.Write(planes)
	out.Write(binary.BigEndian.AppendUint32(nil, crc.Sum32()))
	return out.Bytes()
}

// parentParams is lbm.Params as the previous release declared it, with
// the in-plane Layout field it has since dropped, and parentStateMeta /
// parentMeta the headers built on it.
type parentParams struct {
	NX, NY, NZ     int
	Components     []lbm.Component
	G              [][]float64
	WallForceAmp   float64
	WallForceDecay float64
	WallForceComp  int
	WallWindow     *geometry.WallForceWindow
	BodyForce      [3]float64
	Obstacles      []lbm.Obstacle
	WallAdhesion   []float64
	InitXWave      float64
	RhoMin         float64
	Precision      lbm.Precision
	Fused          bool
	Layout         uint8
}

type parentStateMeta struct {
	Params *parentParams
	Step   int
}

type parentMeta struct {
	Kind               kind
	NComp              int
	State              parentStateMeta
	Spec               lbm.RefineSpec
	M0, RawDrift       []float64
	Levels             [3]parentStateMeta
	Phase, Rank, Start int
	Manifest           *Manifest
	Groups             []group
}

// TestLoadsParentHeaders: a state container whose header was written
// with the previous Params type — the gob type descriptor still names
// Layout, with the cell-major value every such file carried, and Fused
// set as job specs set it — loads, and the solver rebuilt from it
// steps byte-identically to one rebuilt from the unedited file.
func TestLoadsParentHeaders(t *testing.T) {
	p := lbm.WaterAir(6, 8, 6)
	p.InitXWave = 0.04
	s, err := lbm.NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	var buf bytes.Buffer
	if err := Save(&buf, s.State()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var m meta
	hlen := int(binary.BigEndian.Uint32(raw[6:]))
	if err := gob.NewDecoder(bytes.NewReader(raw[prefixLen : prefixLen+hlen])).Decode(&m); err != nil {
		t.Fatal(err)
	}
	q := m.State.Params
	old := rewrap(t, raw, &parentMeta{
		Kind: m.Kind, NComp: m.NComp, Groups: m.Groups,
		State: parentStateMeta{Step: m.State.Step, Params: &parentParams{
			NX: q.NX, NY: q.NY, NZ: q.NZ, Components: q.Components, G: q.G,
			WallForceAmp: q.WallForceAmp, WallForceDecay: q.WallForceDecay, WallForceComp: q.WallForceComp,
			WallWindow: q.WallWindow, BodyForce: q.BodyForce, Obstacles: q.Obstacles,
			WallAdhesion: q.WallAdhesion, InitXWave: q.InitXWave, RhoMin: q.RhoMin,
			Precision: q.Precision, Fused: true,
		}},
	})
	if bytes.Equal(old, raw) {
		t.Fatal("the parent header encodes like the current one; the test checks nothing")
	}

	run := func(file []byte) *lbm.State {
		t.Helper()
		st, err := Load(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		solver, err := lbm.SolverFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		solver.Run(3)
		return solver.State()
	}
	want, got := run(raw), run(old)
	if got.Step != want.Step {
		t.Fatalf("resumed to step %d, want %d", got.Step, want.Step)
	}
	for c := range want.F {
		requireBitEqual(t, fmt.Sprintf("comp %d", c), got.F[c], want.F[c])
	}
}

// TestLoadChecksDeclaredLengthsBeforeAllocating: a header whose CRC is
// good but whose shape table disagrees with the file must fail typed —
// and before any plane storage is allocated for it.
func TestLoadChecksDeclaredLengthsBeforeAllocating(t *testing.T) {
	raw := saveBytes(t)
	if _, err := Load(bytes.NewReader(reframe(t, raw, func(*meta) {}))); err != nil {
		t.Fatalf("reframed container with an unedited header: %v", err)
	}
	for name, edit := range map[string]func(*meta){
		"2^40 planes":      func(m *meta) { m.Groups[0].Planes = 1 << 40 },
		"2^40 values":      func(m *meta) { m.Groups[0].Len = 1 << 40 },
		"product overflow": func(m *meta) { m.Groups[0].Planes, m.Groups[0].Len = 1<<62, 1<<62 },
		"one plane more":   func(m *meta) { m.Groups[0].Planes++ },
		"one plane less":   func(m *meta) { m.Groups[0].Planes-- },
		"no planes":        func(m *meta) { m.Groups[0].Planes = 0 },
		"negative length":  func(m *meta) { m.Groups[0].Len = -1 },
		"width 2":          func(m *meta) { m.Groups[0].Width = 2 },
		"extra group":      func(m *meta) { m.Groups = append(m.Groups, group{1 << 30, 1 << 30, 8}) },
		"no groups":        func(m *meta) { m.Groups = nil },
		"components":       func(m *meta) { m.NComp = 7 },
		"rank file":        func(m *meta) { m.Kind = kindRank },
		"unknown kind":     func(m *meta) { m.Kind = 99 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := reframe(t, raw, edit)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(bytes.NewReader(bad))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("Load allocated %d bytes rejecting a %d-byte file", got, len(bad))
			}
		})
	}
}

// TestCrashBetweenWriteAndRename simulates a saver that died after
// writing its temp file but before the rename: the previous checkpoint
// must still load, and the next SaveFile must clean the stale temp up.
func TestCrashBetweenWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	p := lbm.SingleFluid(4, 6, 6, 1.0, 1e-6)
	s, err := lbm.NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1)
	if err := SaveFile(path, s.State()); err != nil {
		t.Fatal(err)
	}

	// The "crash": a leftover temp file with this path's prefix, halfway
	// through a newer save.
	stale := filepath.Join(dir, tempPrefix("state.ckpt")+"123456")
	if err := os.WriteFile(stale, []byte("partial write, never renamed"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The previous checkpoint is untouched by the crash.
	st, err := LoadFile(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after simulated crash: %v", err)
	}
	if st.Step != 1 {
		t.Fatalf("loaded step %d, want 1", st.Step)
	}

	// The next save sweeps the stale temp and leaves exactly one file.
	s.Run(1)
	if err := SaveFile(path, s.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp %s survived the next SaveFile", filepath.Base(stale))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v after save, want just the checkpoint", names)
	}
	if st, err := LoadFile(path); err != nil || st.Step != 2 {
		t.Errorf("final checkpoint load = step %d, err %v; want step 2", st.Step, err)
	}
}

// TestStaleTempCleanupIsScopedPerBase: concurrent per-rank saves share
// a directory, so cleaning up one file's stale temps must not sweep
// another file's.
func TestStaleTempCleanupIsScopedPerBase(t *testing.T) {
	dir := t.TempDir()
	otherTemp := filepath.Join(dir, tempPrefix("rank-0001.ckpt")+"777")
	if err := os.WriteFile(otherTemp, []byte("another rank's in-flight save"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := lbm.SingleFluid(4, 6, 6, 1.0, 1e-6)
	s, _ := lbm.NewSim(p)
	if err := SaveFile(filepath.Join(dir, "rank-0000.ckpt"), s.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(otherTemp); err != nil {
		t.Fatalf("rank 0's save swept rank 1's live temp file: %v", err)
	}
}

// TestResumeDeterminism is the satellite acceptance: running N phases
// straight must be bit-identical to running N/2, checkpointing to disk,
// loading, and running the rest — over several grids.
func TestResumeDeterminism(t *testing.T) {
	grids := []struct {
		name   string
		params *lbm.Params
		phases int
	}{
		{"water-air-6x8x6", lbm.WaterAir(6, 8, 6), 8},
		{"water-air-9x4x4", lbm.WaterAir(9, 4, 4), 10},
		{"single-fluid-5x6x6", lbm.SingleFluid(5, 6, 6, 1.0, 1e-6), 6},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			straight, err := lbm.NewSim(g.params)
			if err != nil {
				t.Fatal(err)
			}
			straight.Run(g.phases)

			half, err := lbm.NewSim(g.params)
			if err != nil {
				t.Fatal(err)
			}
			half.Run(g.phases / 2)
			path := filepath.Join(t.TempDir(), "half.ckpt")
			if err := SaveFile(path, half.State()); err != nil {
				t.Fatal(err)
			}
			st, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := lbm.FromState(st)
			if err != nil {
				t.Fatal(err)
			}
			resumed.Run(g.phases - g.phases/2)

			if resumed.StepCount() != straight.StepCount() {
				t.Fatalf("resumed steps %d, straight %d", resumed.StepCount(), straight.StepCount())
			}
			for c := 0; c < g.params.NComp(); c++ {
				for x := 0; x < g.params.NX; x++ {
					a, b := straight.Plane(c, x), resumed.Plane(c, x)
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("resumed run diverged at comp %d plane %d index %d: %v != %v", c, x, i, b[i], a[i])
						}
					}
				}
			}
		})
	}
}

// bitPlanes returns count planes of n values covering the bit patterns
// a text or varint encoding would mangle: negative zero, denormals,
// infinities, a NaN payload, and full-mantissa fractions. With f32 set,
// every value is exactly representable in float32.
func bitPlanes(count, n int, f32 bool, seed uint64) [][]float64 {
	special := []float64{math.Copysign(0, -1), 5e-324, math.Inf(-1), math.Float64frombits(0x7ff8000000abc000), 1.0 / 3}
	out := make([][]float64, count)
	for x := range out {
		out[x] = make([]float64, n)
		for i := range out[x] {
			seed = seed*6364136223846793005 + 1442695040888963407
			v := math.Float64frombits(seed>>2 | 0x3000000000000000) // finite, every mantissa bit in play
			if i < len(special) {
				v = special[i]
			}
			if f32 {
				v = float64(float32(v))
			}
			out[x][i] = v
		}
	}
	return out
}

func requireBitEqual(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d planes, want %d", what, len(got), len(want))
	}
	for x := range want {
		if len(got[x]) != len(want[x]) {
			t.Fatalf("%s plane %d: %d values, want %d", what, x, len(got[x]), len(want[x]))
		}
		for i := range want[x] {
			if math.Float64bits(got[x][i]) != math.Float64bits(want[x][i]) {
				t.Fatalf("%s plane %d value %d: bits %016x, want %016x", what, x, i, math.Float64bits(got[x][i]), math.Float64bits(want[x][i]))
			}
		}
	}
}

// TestRoundTripBitIdentical: every kind of file gives back exactly the
// bits it was handed — uniform f64, uniform f32 (through 4-byte words),
// refined with blocks of different shapes, and a 2-rank set with unequal
// plane counts assembled by LoadRun. The planes are larger than one
// chunk buffer, so the chunk seams are inside them.
func TestRoundTripBitIdentical(t *testing.T) {
	const n = chunkBytes/8 + 37
	state := func(prec lbm.Precision, planes, vals int, seed uint64) *lbm.State {
		p := lbm.WaterAir(planes, 4, 4)
		p.Precision = prec
		return &lbm.State{Params: p, Step: 11, F: [][][]float64{
			bitPlanes(planes, vals, prec == lbm.F32, seed), bitPlanes(planes, vals, prec == lbm.F32, seed+1)}}
	}
	requireStateEqual := func(t *testing.T, what string, got, want *lbm.State) {
		t.Helper()
		if got.Step != want.Step || !reflect.DeepEqual(got.Params, want.Params) || len(got.F) != len(want.F) {
			t.Fatalf("%s: step %d params %+v comps %d, want %d %+v %d", what, got.Step, got.Params, len(got.F), want.Step, want.Params, len(want.F))
		}
		for c := range want.F {
			requireBitEqual(t, fmt.Sprintf("%s comp %d", what, c), got.F[c], want.F[c])
		}
	}
	for _, prec := range []lbm.Precision{lbm.F64, lbm.F32} {
		t.Run("uniform "+prec.String(), func(t *testing.T) {
			want := state(prec, 3, n, 1)
			path := filepath.Join(t.TempDir(), "state.ckpt")
			if err := SaveFile(path, want); err != nil {
				t.Fatal(err)
			}
			got, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			requireStateEqual(t, "state", got, want)
		})
		t.Run("refined "+prec.String(), func(t *testing.T) {
			g := state(prec, 3, 7, 2)
			want := &lbm.RefinedState{Params: g.Params, Spec: lbm.RefineSpec{Levels: 2, WallLayers: 4}, Step: 11,
				M0: []float64{1.0 / 7, 3}, RawDrift: []float64{-1e-17, 0},
				Levels: [3]*lbm.State{state(prec, 6, 9, 3), state(prec, 6, 9, 4), state(prec, 3, n, 5)}}
			path := filepath.Join(t.TempDir(), "refined.ckpt")
			if err := SaveRefinedFile(path, want); err != nil {
				t.Fatal(err)
			}
			got, err := LoadRefinedFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Step != want.Step || got.Spec != want.Spec || !reflect.DeepEqual(got.Params, want.Params) {
				t.Fatalf("refined scalars = %d %+v %+v", got.Step, got.Spec, got.Params)
			}
			requireBitEqual(t, "anchors", [][]float64{got.M0, got.RawDrift}, [][]float64{want.M0, want.RawDrift})
			for i := range want.Levels {
				requireStateEqual(t, fmt.Sprintf("level %d", i), got.Levels[i], want.Levels[i])
			}
		})
	}
	t.Run("rank set", func(t *testing.T) {
		dir := t.TempDir()
		m := &Manifest{Phase: 4, NX: 5, NComp: 2, PlaneSize: n, Ranks: []RankRange{{0, 0, 2}, {1, 2, 3}}}
		var dist, dens [2][][]float64
		for c := range dist {
			dist[c], dens[c] = bitPlanes(5, n, false, uint64(10+c)), bitPlanes(5, 3, false, uint64(20+c))
		}
		for _, rr := range m.Ranks {
			rs := &RankState{Phase: 4, Rank: rr.Rank, Start: rr.Start}
			for c := range dist {
				rs.Planes = append(rs.Planes, dist[c][rr.Start:rr.Start+rr.Count])
				rs.Density = append(rs.Density, dens[c][rr.Start:rr.Start+rr.Count])
			}
			if err := SaveRank(dir, rs); err != nil {
				t.Fatal(err)
			}
		}
		if err := Commit(dir, m); err != nil {
			t.Fatal(err)
		}
		snap, err := LatestRun(dir)
		if err != nil {
			t.Fatal(err)
		}
		for c := range dist {
			requireBitEqual(t, fmt.Sprintf("planes comp %d", c), snap.planes[c], dist[c])
			requireBitEqual(t, fmt.Sprintf("density comp %d", c), snap.density[c], dens[c])
		}
	})
}
