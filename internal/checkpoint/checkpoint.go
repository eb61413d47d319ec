// Package checkpoint persists simulation snapshots. The paper's
// full-resolution slip simulation needs hundreds of thousands of phases
// over days; checkpointing lets runs stop, move, and resume without
// losing progress, and — together with the coordinated per-rank format
// in rank.go — lets a parallel run that stopped or crashed restart from
// the last committed phase, on any group size.
//
// Every file this package writes is one container (container.go;
// DESIGN.md §3 gives the layout byte by byte):
//
//	"MSCK" | version uint16 = 4 | hlen uint32 | header | crc32 | planes | crc32
//
// The header is a small gob: the file's kind (uniform or refined
// snapshot, rank file, COMMIT manifest), its scalars, and the shape of
// every plane group. The planes follow as fixed-width little-endian
// words: 8 bytes, or 4 for a snapshot of the float32 core, widened
// exactly on load. Rank files stay 8 bytes regardless: the distributed
// solver computes in float64 even when it compresses its wire traffic,
// and a resumed run must stay bit-stable. Saves and loads stream the
// planes through one chunk buffer between the caller's slices and the
// file. Corrupted or truncated input fails with ErrCorrupt, any other
// format version with ErrVersion, and a refined file read by the uniform
// Load — or a uniform file by LoadRefined, or a refined file whose
// descriptor differs from the resume's — with ErrRefineMismatch.
package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"microslip/internal/lbm"
)

// ErrCorrupt marks a checkpoint file that failed structural validation:
// bad magic, truncation, a CRC32 mismatch, or lengths that disagree
// with the file.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated")

// ErrVersion marks a checkpoint written by another format version.
var ErrVersion = errors.New("checkpoint: unsupported version")

// ErrPrecision marks a snapshot whose recorded precision differs from
// that of the run resuming it.
var ErrPrecision = errors.New("checkpoint: precision mismatch")

// ErrRefineMismatch marks a refinement disagreement between a snapshot
// and its loader: a refined file read by the uniform Load, a uniform
// file read by LoadRefined, or a refined file whose descriptor differs
// from the one the resume requires.
var ErrRefineMismatch = errors.New("checkpoint: refinement mismatch")

// statePrecision returns the precision a snapshot records.
func statePrecision(st *lbm.State) lbm.Precision {
	if st.Params == nil {
		return lbm.F64
	}
	return st.Params.Precision
}

// statePlanes returns a snapshot's plane groups, one per component,
// narrowed to 4-byte words when its parameters select the float32 core.
// The narrowing is exact for states captured from the float32 solver
// (State widens exactly); a double-precision state mislabeled F32 would
// round, which is why NewSolver rejects mismatched parameter sets.
func statePlanes(st *lbm.State) []planes {
	width := 8
	if statePrecision(st) == lbm.F32 {
		width = 4
	}
	out := make([]planes, len(st.F))
	for c := range st.F {
		out[c] = planes{st.F[c], width}
	}
	return out
}

// Save writes a snapshot container to w.
func Save(w io.Writer, st *lbm.State) error {
	if st == nil {
		return fmt.Errorf("checkpoint: nil state")
	}
	return writeContainer(w, &meta{Kind: kindState, NComp: len(st.F), State: stateMeta{st.Params, st.Step}}, statePlanes(st))
}

// Load reads and validates a snapshot from r, a file or an in-memory
// reader. Reduced-precision planes come back widened to the
// double-precision State form, precision recorded in State.Params;
// resume through lbm.SolverFromState to honor it.
func Load(r io.Reader) (*lbm.State, error) {
	c, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	if c.Kind == kindRefined {
		return nil, fmt.Errorf("checkpoint: snapshot is refined, load with LoadRefined: %w", ErrRefineMismatch)
	}
	if err := c.expect(kindState, 1); err != nil {
		return nil, err
	}
	return &lbm.State{Params: c.State.Params, Step: c.State.Step, F: c.bulk}, nil
}

// tempPrefix returns the temp-file prefix used for atomic saves of the
// given final base name. Embedding the base name keeps concurrent saves
// of *different* files in one directory (per-rank checkpoints) from
// sweeping each other's live temp files.
func tempPrefix(base string) string { return ".checkpoint-" + base + "-" }

// removeStaleTemps deletes leftover temp files from crashed saves of
// this path. Only the saver of a given path touches its temps, so this
// is safe under concurrent per-rank saves into a shared directory.
func removeStaleTemps(dir, base string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), tempPrefix(base)) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// saveFileAtomic runs write against a temp file in path's directory and
// renames it to path, so an interrupted save never corrupts the previous
// checkpoint; stale temp files from earlier crashes are cleaned up
// first.
func saveFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	removeStaleTemps(dir, base)
	tmp, err := os.CreateTemp(dir, tempPrefix(base)+"*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// loadFile runs load against the file at path.
func loadFile[T any](path string, load func(io.Reader) (*T, error)) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return load(f)
}

// SaveFile atomically writes a snapshot to path (temp file in the same
// directory, then rename) and removes stale temp files a crashed
// earlier save may have left behind.
func SaveFile(path string, st *lbm.State) error {
	return saveFileAtomic(path, func(w io.Writer) error { return Save(w, st) })
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*lbm.State, error) { return loadFile(path, Load) }

// SaveRefined writes a refined-run snapshot container to w: the three
// blocks' plane groups back to back, each narrowed by its own
// parameters' precision, so a float32 refined run persists float32
// planes for all three blocks.
func SaveRefined(w io.Writer, st *lbm.RefinedState) error {
	if st == nil || st.Params == nil {
		return fmt.Errorf("checkpoint: nil refined state")
	}
	m := &meta{Kind: kindRefined, NComp: st.Params.NComp(), State: stateMeta{st.Params, st.Step},
		Spec: st.Spec, M0: st.M0, RawDrift: st.RawDrift}
	var bulk []planes
	for i, ls := range st.Levels {
		if ls == nil || len(ls.F) != m.NComp {
			return fmt.Errorf("checkpoint: refined state level %d missing or not of %d components", i, m.NComp)
		}
		m.Levels[i] = stateMeta{ls.Params, ls.Step}
		bulk = append(bulk, statePlanes(ls)...)
	}
	return writeContainer(w, m, bulk)
}

// LoadRefined reads and validates a refined snapshot from r. A uniform
// snapshot fails with ErrRefineMismatch; resume the result through
// lbm.RefinedFromState, which re-derives the block geometry from the
// recorded parameters and descriptor.
func LoadRefined(r io.Reader) (*lbm.RefinedState, error) {
	c, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	if c.Kind == kindState {
		return nil, fmt.Errorf("checkpoint: snapshot is uniform, load with Load: %w", ErrRefineMismatch)
	}
	if err := c.expect(kindRefined, len(c.Levels)); err != nil {
		return nil, err
	}
	st := &lbm.RefinedState{Params: c.State.Params, Spec: c.Spec, Step: c.State.Step, M0: c.M0, RawDrift: c.RawDrift}
	for i, lm := range c.Levels {
		st.Levels[i] = &lbm.State{Params: lm.Params, Step: lm.Step, F: c.bulk[i*c.NComp : (i+1)*c.NComp]}
	}
	return st, nil
}

// SaveRefinedFile atomically writes a refined snapshot to path.
func SaveRefinedFile(path string, st *lbm.RefinedState) error {
	return saveFileAtomic(path, func(w io.Writer) error { return SaveRefined(w, st) })
}

// LoadRefinedFile reads a refined snapshot from path.
func LoadRefinedFile(path string) (*lbm.RefinedState, error) { return loadFile(path, LoadRefined) }

// LoadRefinedFileFor is LoadRefinedFile restricted to snapshots recorded
// with the refinement descriptor want: a resume that pins its refinement
// fails with ErrRefineMismatch instead of silently continuing on a
// different grid hierarchy.
func LoadRefinedFileFor(path string, want lbm.RefineSpec) (*lbm.RefinedState, error) {
	st, err := LoadRefinedFile(path)
	if err != nil {
		return nil, err
	}
	if st.Spec != want {
		return nil, fmt.Errorf("checkpoint: snapshot refinement %+v, loader requires %+v: %w", st.Spec, want, ErrRefineMismatch)
	}
	return st, nil
}
