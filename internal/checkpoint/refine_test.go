package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"microslip/internal/lbm"
)

func refineTestSolver(t *testing.T, prec lbm.Precision) lbm.RefinedSolver {
	t.Helper()
	p := lbm.WaterAir(8, 20, 8)
	p.Precision = prec
	r, err := lbm.NewRefined(p, lbm.RefineSpec{Levels: 2, WallLayers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRefinedRoundTrip saves a refined run mid-flight, restores it, and
// checks that the continuation is bit-identical to the uninterrupted
// run — the same resume contract the uniform snapshots guarantee.
func TestRefinedRoundTrip(t *testing.T) {
	for _, prec := range []lbm.Precision{lbm.F64, lbm.F32} {
		t.Run(prec.String(), func(t *testing.T) {
			r := refineTestSolver(t, prec)
			r.Run(5)

			var buf bytes.Buffer
			if err := SaveRefined(&buf, r.State()); err != nil {
				t.Fatal(err)
			}
			st, err := LoadRefined(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if st.Spec != r.Spec() {
				t.Fatalf("loaded spec %+v, want %+v", st.Spec, r.Spec())
			}
			restored, err := lbm.RefinedFromState(st)
			if err != nil {
				t.Fatal(err)
			}
			if restored.StepCount() != 5 {
				t.Errorf("restored step %d, want 5", restored.StepCount())
			}
			r.Run(3)
			restored.Run(3)
			a, b := r.State(), restored.State()
			for lv := range a.Levels {
				for c := range a.Levels[lv].F {
					for x := range a.Levels[lv].F[c] {
						pa, pb := a.Levels[lv].F[c][x], b.Levels[lv].F[c][x]
						for i := range pa {
							if pa[i] != pb[i] {
								t.Fatalf("restored run diverged at level %d comp %d plane %d index %d", lv, c, x, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestRefinedFile exercises the file forms, including the atomic-save
// temp cleanup and the spec-pinned loader.
func TestRefinedFile(t *testing.T) {
	r := refineTestSolver(t, lbm.F64)
	r.Run(2)
	path := filepath.Join(t.TempDir(), "refined.ckpt")
	if err := SaveRefinedFile(path, r.State()); err != nil {
		t.Fatal(err)
	}
	st, err := LoadRefinedFileFor(path, r.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 2 {
		t.Errorf("loaded step %d, want 2", st.Step)
	}
	if _, err := LoadRefinedFileFor(path, lbm.RefineSpec{Levels: 2, WallLayers: 6}); !errors.Is(err, ErrRefineMismatch) {
		t.Errorf("mismatched spec load = %v, want ErrRefineMismatch", err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after save, want 1", len(entries))
	}
}

// TestRefinedUniformCrossLoads pins the typed failure in both
// directions: the uniform loader refuses refined files and vice versa,
// so a resume can never silently change the grid hierarchy.
func TestRefinedUniformCrossLoads(t *testing.T) {
	r := refineTestSolver(t, lbm.F64)
	var refined bytes.Buffer
	if err := SaveRefined(&refined, r.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(refined.Bytes())); !errors.Is(err, ErrRefineMismatch) {
		t.Errorf("Load(refined file) = %v, want ErrRefineMismatch", err)
	}

	s, err := lbm.NewSim(lbm.WaterAir(4, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	var uniform bytes.Buffer
	if err := Save(&uniform, s.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRefined(bytes.NewReader(uniform.Bytes())); !errors.Is(err, ErrRefineMismatch) {
		t.Errorf("LoadRefined(uniform file) = %v, want ErrRefineMismatch", err)
	}
}

// TestManifestRefineRoundTrip checks that a manifest's refinement
// descriptor survives the commit container and surfaces on the
// assembled snapshot.
func TestManifestRefineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := &lbm.RefineSpec{Levels: 2, WallLayers: 4}
	planes := [][][]float64{{make([]float64, 6*6*19), make([]float64, 6*6*19)}}
	if err := SaveRank(dir, &RankState{Phase: 1, Rank: 0, Start: 0, Planes: planes}); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Phase: 1, NX: 2, NComp: 1, PlaneSize: 6 * 6 * 19, Refine: spec,
		Ranks: []RankRange{{Rank: 0, Start: 0, Count: 2}}}
	if err := Commit(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := LatestCommitted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Refine == nil || *got.Refine != *spec {
		t.Fatalf("committed manifest refine = %+v, want %+v", got.Refine, spec)
	}
	snap, err := LoadRun(dir, got)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Refine == nil || *snap.Refine != *spec {
		t.Fatalf("snapshot refine = %+v, want %+v", snap.Refine, spec)
	}
}
