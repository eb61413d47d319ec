package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"microslip/internal/lbm"
)

// Coordinated distributed checkpoints: every rank of a parallel run
// persists its slab at the same phase boundary into a shared directory,
//
//	dir/
//	  phase-00000010/
//	    rank-0000.ckpt   (RankState container)
//	    rank-0001.ckpt
//	    COMMIT           (Manifest container)
//	  phase-00000020/...
//
// with two-phase commit semantics: the COMMIT manifest is written —
// atomically, by one coordinator rank — only after every rank's file is
// atomically in place (rename), not fsynced, and restore only ever reads
// a phase directory whose COMMIT validates. A crash or rank death
// mid-save leaves an uncommitted directory that restore ignores and
// Prune later removes, so a set of per-rank files is only ever restored
// as one consistent phase.

// CommitName is the commit-marker file name inside a phase directory.
const CommitName = "COMMIT"

// RankState is one rank's slab snapshot at a phase boundary.
type RankState struct {
	// Phase is the number of completed phases.
	Phase int
	// Rank is the writer's rank slot in the group.
	Rank int
	// Start is the global x index of Planes[c][0]; the rank owned
	// [Start, Start+len(Planes[c])) — its remap ownership at the
	// boundary.
	Start int
	// Planes[c][i] is component c's distribution plane at global x
	// Start+i (length NY*NZ*19).
	Planes [][][]float64
	// Density[c][i] is component c's number-density plane at Start+i
	// (length NY*NZ). Densities derive from the planes, so parlbm
	// writes none and a resume never reads them; rank sets written
	// with them still load. Nil when the writer persisted none.
	Density [][][]float64
}

// Count returns the number of planes in the snapshot.
func (rs *RankState) Count() int {
	if len(rs.Planes) == 0 {
		return 0
	}
	return len(rs.Planes[0])
}

// RankRange records one rank's ownership in a committed manifest.
type RankRange struct {
	Rank, Start, Count int
}

// Manifest is the commit record of one coordinated checkpoint: which
// rank files make up the phase and the ownership map that must tile
// [0, NX) exactly.
type Manifest struct {
	// Phase is the number of completed phases.
	Phase int
	// NX, NComp, PlaneSize describe the lattice so restore validates
	// shape before reading any plane data.
	NX, NComp, PlaneSize int
	// Params, when non-nil, carries the run parameters so a checkpoint
	// directory is self-describing (cmd/slipsim -resume-dir).
	Params *lbm.Params
	// Refine, when non-nil, records that the run stepped the two-level
	// near-wall refined solver with this descriptor. A resume must
	// reconstruct the same grid hierarchy — restoring a refined run
	// onto a uniform solver (or a differently-refined one) would change
	// the trajectory silently, so resumers compare this against their
	// own descriptor and fail with ErrRefineMismatch on disagreement.
	Refine *lbm.RefineSpec
	// Ranks lists the per-rank files and their plane ranges.
	Ranks []RankRange
}

// Validate checks that the manifest's ownership map tiles the lattice.
func (m *Manifest) Validate() error {
	if m.Phase < 0 || m.NX < 1 || m.NComp < 1 || m.PlaneSize < 1 {
		return fmt.Errorf("checkpoint: manifest phase %d lattice %dx%d planes %d invalid", m.Phase, m.NX, m.NComp, m.PlaneSize)
	}
	ranges := append([]RankRange(nil), m.Ranks...)
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Start < ranges[j].Start })
	pos := 0
	for _, r := range ranges {
		if r.Start != pos || r.Count < 1 {
			return fmt.Errorf("checkpoint: manifest ranges do not tile [0,%d): rank %d owns [%d,%d)", m.NX, r.Rank, r.Start, r.Start+r.Count)
		}
		pos += r.Count
	}
	if pos != m.NX {
		return fmt.Errorf("checkpoint: manifest ranges cover %d of %d planes", pos, m.NX)
	}
	return nil
}

// PhaseDir returns the directory holding the coordinated checkpoint of
// the given phase.
func PhaseDir(dir string, phase int) string {
	return filepath.Join(dir, fmt.Sprintf("phase-%08d", phase))
}

// rankFile returns the per-rank file name.
func rankFile(rank int) string { return fmt.Sprintf("rank-%04d.ckpt", rank) }

// SaveRank atomically writes one rank's snapshot into the phase
// directory under dir, creating it as needed: every plane streams from
// the caller's slice (the live slab, for an AoS run) to the file. It is
// safe for all ranks of a group to call concurrently.
func SaveRank(dir string, rs *RankState) error {
	if rs == nil || len(rs.Planes) == 0 {
		return fmt.Errorf("checkpoint: empty rank state")
	}
	if len(rs.Density) != 0 && len(rs.Density) != len(rs.Planes) {
		return fmt.Errorf("checkpoint: rank state has densities for %d of %d components", len(rs.Density), len(rs.Planes))
	}
	pd := PhaseDir(dir, rs.Phase)
	if err := os.MkdirAll(pd, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	m := &meta{Kind: kindRank, NComp: len(rs.Planes), Phase: rs.Phase, Rank: rs.Rank, Start: rs.Start}
	var bulk []planes
	for _, comp := range slices.Concat(rs.Planes, rs.Density) {
		bulk = append(bulk, planes{comp, 8})
	}
	return saveFileAtomic(filepath.Join(pd, rankFile(rs.Rank)), func(w io.Writer) error { return writeContainer(w, m, bulk) })
}

// LoadRank reads one rank's snapshot from the phase directory.
func LoadRank(dir string, phase, rank int) (*RankState, error) {
	c, err := loadFile(filepath.Join(PhaseDir(dir, phase), rankFile(rank)), readContainer)
	if err != nil {
		return nil, err
	}
	if err := c.expect(kindRank, 1, 2); err != nil {
		return nil, err
	}
	return &RankState{Phase: c.Phase, Rank: c.Rank, Start: c.Start,
		Planes: c.bulk[:c.NComp:c.NComp], Density: c.bulk[c.NComp:]}, nil
}

// readManifest reads the COMMIT marker of one phase directory; only a
// manifest that validates comes back.
func readManifest(phaseDir string) (*Manifest, error) {
	c, err := loadFile(filepath.Join(phaseDir, CommitName), readContainer)
	if err != nil {
		return nil, err
	}
	if c.Kind != kindCommit || c.Manifest == nil || len(c.bulk) != 0 {
		return nil, fmt.Errorf("checkpoint: %s holds no commit marker: %w", phaseDir, ErrCorrupt)
	}
	if err := c.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	return c.Manifest, nil
}

// Commit atomically writes the commit marker for the manifest's phase.
// The coordinator must call it only after every rank file named by the
// manifest is in place (the runner synchronizes with a collective).
func Commit(dir string, m *Manifest) error {
	if m == nil {
		return fmt.Errorf("checkpoint: nil manifest")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	return saveFileAtomic(filepath.Join(PhaseDir(dir, m.Phase), CommitName), func(w io.Writer) error {
		return writeContainer(w, &meta{Kind: kindCommit, Manifest: m}, nil)
	})
}

// ErrNoCheckpoint is returned by LatestCommitted when the directory
// holds no committed phase.
var ErrNoCheckpoint = errors.New("checkpoint: no committed checkpoint")

// phaseDirs lists the phase directories under dir, newest phase first;
// a missing dir holds none.
func phaseDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) > 6 && e.Name()[:6] == "phase-" {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// LatestCommitted scans dir for the newest phase directory whose COMMIT
// marker validates, skipping uncommitted sets (a crash mid-save, or a
// set in progress) and corrupt markers.
func LatestCommitted(dir string) (*Manifest, error) {
	names, err := phaseDirs(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if m, err := readManifest(filepath.Join(dir, name)); err == nil {
			return m, nil
		}
	}
	return nil, ErrNoCheckpoint
}

// RunSnapshot is a fully assembled coordinated checkpoint: every plane
// of every component at one committed phase, addressable by global x.
type RunSnapshot struct {
	// Phase is the number of completed phases.
	Phase int
	// NX, NComp, PlaneSize mirror the manifest.
	NX, NComp, PlaneSize int
	// Params carries the manifest's run parameters (may be nil).
	Params *lbm.Params
	// Refine carries the manifest's refinement descriptor (nil for
	// uniform runs).
	Refine *lbm.RefineSpec

	planes  [][][]float64 // [comp][gx][]
	density [][][]float64 // [comp][gx][]; entries nil when the writer persisted none
}

// Plane returns component c's distribution plane at global x.
func (s *RunSnapshot) Plane(c, gx int) []float64 { return s.planes[c][gx] }

// DensityPlane returns component c's number-density plane at global x,
// or nil when the writer did not persist densities.
func (s *RunSnapshot) DensityPlane(c, gx int) []float64 { return s.density[c][gx] }

// LoadRun assembles the snapshot named by a committed manifest,
// validating every rank file's shape and coverage against it.
func LoadRun(dir string, m *Manifest) (*RunSnapshot, error) {
	if m == nil {
		return nil, fmt.Errorf("checkpoint: nil manifest")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	snap := &RunSnapshot{
		Phase: m.Phase, NX: m.NX, NComp: m.NComp, PlaneSize: m.PlaneSize,
		Params:  m.Params,
		Refine:  m.Refine,
		planes:  make([][][]float64, m.NComp),
		density: make([][][]float64, m.NComp),
	}
	for c := 0; c < m.NComp; c++ {
		snap.planes[c] = make([][]float64, m.NX)
		snap.density[c] = make([][]float64, m.NX)
	}
	for _, rr := range m.Ranks {
		rs, err := LoadRank(dir, m.Phase, rr.Rank)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: phase %d rank %d: %w", m.Phase, rr.Rank, err)
		}
		if rs.Phase != m.Phase || rs.Start != rr.Start || len(rs.Planes) != m.NComp {
			return nil, fmt.Errorf("checkpoint: phase %d rank %d file disagrees with manifest: %w", m.Phase, rr.Rank, ErrCorrupt)
		}
		for c := 0; c < m.NComp; c++ {
			// A group's planes all have its first one's length.
			if len(rs.Planes[c]) != rr.Count || len(rs.Planes[c][0]) != m.PlaneSize {
				return nil, fmt.Errorf("checkpoint: phase %d rank %d component %d holds %d planes of %d values, want %d of %d: %w",
					m.Phase, rr.Rank, c, len(rs.Planes[c]), len(rs.Planes[c][0]), rr.Count, m.PlaneSize, ErrCorrupt)
			}
			copy(snap.planes[c][rr.Start:], rs.Planes[c])
			if len(rs.Density) == m.NComp && len(rs.Density[c]) == rr.Count {
				copy(snap.density[c][rr.Start:], rs.Density[c])
			}
		}
	}
	// The manifest tiles [0, NX), so every plane is populated.
	return snap, nil
}

// LatestRun loads the newest committed snapshot under dir, or
// ErrNoCheckpoint.
func LatestRun(dir string) (*RunSnapshot, error) {
	m, err := LatestCommitted(dir)
	if err != nil {
		return nil, err
	}
	return LoadRun(dir, m)
}

// DefaultPruneAge is Prune's grace window for uncommitted phase
// directories: one younger than this is presumed to be a checkpoint in
// progress and left alone even when a newer committed phase exists. A
// run legitimately resumed from an older committed phase writes its
// next checkpoint at a LOWER phase number than the newest commit on
// disk, so phase ordering alone cannot distinguish "stale partial from
// a killed attempt" from "set being written right now" — recency can.
const DefaultPruneAge = 10 * time.Minute

// Prune keeps the newest `keep` committed phase directories and removes
// older ones, along with stale uncommitted directories (partials from
// crashed or killed attempts). An uncommitted directory survives when
// it is at or beyond the newest committed phase, or when any of its
// files was modified within DefaultPruneAge — either way it may be a
// checkpoint in progress, possibly from a run resumed at an older
// phase. Committed means the COMMIT marker validates, the same test
// restore applies: a corrupt marker must not anchor the stale line.
func Prune(dir string, keep int) error {
	return PruneAged(dir, keep, DefaultPruneAge)
}

// PruneAged is Prune with an explicit grace window for uncommitted
// directories; minAge <= 0 disables the guard and removes every
// uncommitted directory older (by phase) than the newest commit.
func PruneAged(dir string, keep int, minAge time.Duration) error {
	if keep < 1 {
		keep = 1
	}
	names, err := phaseDirs(dir)
	if err != nil {
		return err
	}
	newestCommitted := ""
	committedSeen := 0
	for _, name := range names {
		pd := filepath.Join(dir, name)
		// Committed by the criterion LatestCommitted restores by, not by
		// bare existence: a corrupt marker must not make the directory
		// look committed to the pruner while restore ignores it.
		if _, err := readManifest(pd); err != nil {
			if newestCommitted != "" && name < newestCommitted && quiescentFor(pd, minAge) {
				os.RemoveAll(pd)
			}
			continue
		}
		if newestCommitted == "" {
			newestCommitted = name
		}
		committedSeen++
		if committedSeen > keep {
			os.RemoveAll(pd)
		}
	}
	return nil
}

// quiescentFor reports whether nothing under path (the directory itself
// or any direct entry) was modified within minAge. minAge <= 0 means
// always quiescent.
func quiescentFor(path string, minAge time.Duration) bool {
	if minAge <= 0 {
		return true
	}
	cutoff := time.Now().Add(-minAge)
	newest := time.Time{}
	if fi, err := os.Stat(path); err == nil {
		newest = fi.ModTime()
	}
	if entries, err := os.ReadDir(path); err == nil {
		for _, e := range entries {
			if fi, err := e.Info(); err == nil && fi.ModTime().After(newest) {
				newest = fi.ModTime()
			}
		}
	}
	return newest.Before(cutoff)
}
