package parlbm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"microslip/internal/balance"
	"microslip/internal/checkpoint"
	"microslip/internal/field"
	"microslip/internal/lbm"
)

// waveParams returns the water+air setup with an x-dependent initial
// density wave. A uniform initial state is x-translation-invariant for
// several phases, which masks halo-routing mistakes (a swapped or
// stale ghost plane produces the same bits); the wave makes every
// plane's value distinct from the first phase on.
func waveParams(nx, ny, nz int) *lbm.Params {
	p := lbm.WaterAir(nx, ny, nz)
	p.InitXWave = 0.04
	return p
}

// wave32Params is waveParams at single precision.
func wave32Params(nx, ny, nz int) *lbm.Params {
	p := waveParams(nx, ny, nz)
	p.Precision = lbm.F32
	return p
}

// bandPinner reaches the sequential solver's test-only band pin, which
// lbm.Solver does not carry.
type bandPinner interface{ SetFusedChunks(n int) }

// Every execution path — intra-node parallel stepping at every banding
// and precision, and the distributed solver on
// several group sizes, both transports, mid-run remapping under every
// policy, and checkpoint/resume across group sizes — must reproduce
// the one oracle, the serial three-pass Step, byte for byte on the
// water+air channel with an x-dependent initial condition. This is the
// guard that lets every perf path claim "same physics, faster".
func TestBitIdentityMatrix(t *testing.T) {
	const nx, ny, nz, steps = matrixNX, matrixNY, matrixNZ, matrixSteps
	ref, err := lbm.NewSim(waveParams(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(steps)
	nc := ref.P.NComp()

	check := func(t *testing.T, label string, plane func(c, x int) []float64) {
		t.Helper()
		for c := 0; c < nc; c++ {
			for x := 0; x < nx; x++ {
				want, got := ref.Plane(c, x), plane(c, x)
				if len(got) != len(want) {
					t.Fatalf("%s: comp %d plane %d has %d values, want %d", label, c, x, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%s: diverged at comp %d plane %d index %d: %v != %v",
							label, c, x, i, got[i], want[i])
					}
				}
			}
		}
	}

	// The intra-node rows: every banding of the sequential solver's one
	// stepping path — the fused sweep, in place, behind in-memory frames
	// — at both scalar precisions, each compared through the
	// exactly-widening State snapshot against the serial Step of its
	// precision, and each then held to zero allocations per step. The
	// band count is pinned: the production heuristic would refuse to
	// shard a grid this small. Requests above NX/2 (bands=8, 12) clamp to
	// two-plane bands, the frame floor. The rows keep the names of the
	// switches they used to carry: layout=aos names the one plane
	// ordering, and fused=false named the deleted three-pass band path
	// and now runs the same sweep as fused=true.
	ref32, err := lbm.NewSolver(wave32Params(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	ref32.Run(steps)
	refState := map[lbm.Precision]*lbm.State{
		lbm.F64: ref.State(),
		lbm.F32: ref32.State(),
	}
	for _, prec := range []lbm.Precision{lbm.F64, lbm.F32} {
		for _, bands := range []int{1, 2, 3, 8, 6, 12} {
			for _, fused := range []bool{false, true} {
				label := fmt.Sprintf("intra/layout=aos/prec=%v/bands=%d/fused=%v", prec, bands, fused)
				t.Run(label, func(t *testing.T) {
					p := waveParams(nx, ny, nz)
					p.Precision = prec
					p.Fused = fused
					s, err := lbm.NewSolver(p)
					if err != nil {
						t.Fatal(err)
					}
					s.SetWorkers(bands)
					s.(bandPinner).SetFusedChunks(bands)
					advance(t, s, steps)
					checkIntra(t, refState[prec], s)
				})
			}
		}
	}
	// Single-band rows on lattices narrower than the sweep's stencil: the
	// band's frames wrap onto its own one, two or three planes.
	for _, tnx := range []int{1, 2, 3} {
		for _, prec := range []lbm.Precision{lbm.F64, lbm.F32} {
			label := fmt.Sprintf("intra/nx=%d/layout=aos/prec=%v", tnx, prec)
			t.Run(label, func(t *testing.T) {
				p := waveParams(tnx, ny, nz)
				p.Precision = prec
				want, err := lbm.NewSolver(p)
				if err != nil {
					t.Fatal(err)
				}
				want.Run(steps)
				s, err := lbm.NewSolver(p)
				if err != nil {
					t.Fatal(err)
				}
				advance(t, s, steps)
				checkIntra(t, want.State(), s)
			})
		}
	}
	// Mid-run resume: a banded run snapshotted halfway through State and
	// rebuilt with SolverFromState continues byte-identically.
	for _, prec := range []lbm.Precision{lbm.F64, lbm.F32} {
		for _, bands := range []int{1, 3} {
			label := fmt.Sprintf("intra/resume/prec=%v/bands=%d", prec, bands)
			t.Run(label, func(t *testing.T) {
				p := waveParams(nx, ny, nz)
				p.Precision = prec
				first, err := lbm.NewSolver(p)
				if err != nil {
					t.Fatal(err)
				}
				first.(bandPinner).SetFusedChunks(bands)
				advance(t, first, steps/2)
				s, err := lbm.SolverFromState(first.State())
				if err != nil {
					t.Fatal(err)
				}
				s.(bandPinner).SetFusedChunks(bands)
				advance(t, s, steps-steps/2)
				checkIntra(t, refState[prec], s)
			})
		}
	}

	// The distributed rows named after the switches the solver used to
	// have — rank storage layout, compute/communication overlap, and halo
	// wire format — keep their names, and each runs the configuration its
	// name describes less the deleted switches: the one frame protocol on
	// its rank count, which must reproduce the oracle.
	for _, ranks := range []int{1, 2, 3} {
		for _, legacy := range legacyProtocols {
			label := fmt.Sprintf("parlbm/layout=aos/ranks=%d/%s", ranks, legacy)
			t.Run(label, func(t *testing.T) {
				final, _, err := RunParallel(waveParams(nx, ny, nz), ranks, Options{Phases: steps})
				if err != nil {
					t.Fatal(err)
				}
				check(t, label, func(c, x int) []float64 { return final[c].Plane(x) })
			})
		}
	}

	// The distributed rows: fused ranks behind frames, checked against
	// the serial reference through the gathered fields.
	for _, row := range []struct {
		name string
		run  func() ([]*field.Dist3D, []*Result, error)
		// moved asks the row to prove planes migrated.
		moved bool
	}{
		// 12 planes over 5 and 6 ranks: 2-plane slabs, where every owned
		// plane is an edge and each frame's far density is the sender's
		// other edge.
		{"ranks=5", fabricRun(5, Options{}), false},
		{"ranks=6", fabricRun(6, Options{}), false},
		{"tcp/ranks=3", tcpRun(3, Options{}), false},
		{"remap=filtered", fabricRun(3, remapOptions(balance.NewFiltered(ny*nz))), true},
		{"remap=conservative", fabricRun(3, remapOptions(balance.NewConservative(ny*nz))), true},
		{"remap=global", fabricRun(3, remapOptions(balance.NewGlobal(ny*nz))), true},
		// Migration over TCP: every plane is its own message, so many
		// same-tag messages pass through one connection's read loop.
		{"tcp/remap=filtered", tcpRun(3, remapOptions(balance.NewFiltered(ny*nz))), true},
		{"tcp/remap=global", tcpRun(3, remapOptions(balance.NewGlobal(ny*nz))), true},
		{"resume/3to2", resumeRun(t, 3, 2), false},
		{"resume/2to3", resumeRun(t, 2, 3), false},
		{"resume/3to6", resumeRun(t, 3, 6), false},
	} {
		label := "parlbm/" + row.name
		t.Run(label, func(t *testing.T) {
			final, results, err := row.run()
			if err != nil {
				t.Fatal(err)
			}
			check(t, label, func(c, x int) []float64 { return final[c].Plane(x) })
			if row.moved {
				moved := 0
				for _, r := range results {
					moved += r.PlanesSent
				}
				if moved == 0 {
					t.Error("no plane migrated; the row never remapped")
				}
			}
		})
	}
}

// checkIntra holds an intra-node solver to the serial reference state
// want byte for byte, then asserts its steady-state step allocates
// nothing.
func checkIntra(t *testing.T, want *lbm.State, s lbm.Solver) {
	t.Helper()
	got := s.State()
	for c := range want.F {
		for x := range want.F[c] {
			for i := range want.F[c][x] {
				if math.Float64bits(want.F[c][x][i]) != math.Float64bits(got.F[c][x][i]) {
					t.Fatalf("diverged at comp %d plane %d index %d: %v != %v",
						c, x, i, got.F[c][x][i], want.F[c][x][i])
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { s.RunSupervised(1, nil) }); allocs != 0 {
		t.Errorf("RunSupervised(1): %v allocs/op, want 0", allocs)
	}
}

// legacyProtocols names the overlap × halo-wire-format variants the
// distributed solver offered before one frame per neighbor became its
// only protocol. Tests keep a row per variant; all of them now run
// frames.
var legacyProtocols = []string{
	"overlap=false/slim", "overlap=false/wide", "overlap=false/coalesce", "overlap=false/coalesce-wide",
	"overlap=true/slim", "overlap=true/wide", "overlap=true/coalesce", "overlap=true/coalesce-wide",
}

// The lattice of the bit-identity matrix's distributed rows.
const matrixNX, matrixNY, matrixNZ, matrixSteps = 12, 10, 6, 8

// fabricRun returns a RunParallel of the matrix lattice on ranks ranks.
func fabricRun(ranks int, opts Options) func() ([]*field.Dist3D, []*Result, error) {
	return func() ([]*field.Dist3D, []*Result, error) {
		opts.Phases = matrixSteps
		return RunParallel(waveParams(matrixNX, matrixNY, matrixNZ), ranks, opts)
	}
}

// tcpRun returns a RunParallelTCP of the matrix lattice on ranks ranks.
func tcpRun(ranks int, opts Options) func() ([]*field.Dist3D, []*Result, error) {
	return func() ([]*field.Dist3D, []*Result, error) {
		opts.Phases = matrixSteps
		return RunParallelTCP(waveParams(matrixNX, matrixNY, matrixNZ), ranks, opts)
	}
}

// remapOptions remaps every other phase with rank 1 reported 3x slow.
func remapOptions(pol balance.Policy) Options {
	pol.Cfg.Interval, pol.Cfg.HistoryK = 2, 2
	return Options{Policy: pol, PhaseTime: slowRankTime(1)}
}

// resumeRun checkpoints the matrix lattice halfway on `from` ranks and
// returns the resumed run on `to` ranks.
func resumeRun(t *testing.T, from, to int) func() ([]*field.Dist3D, []*Result, error) {
	return func() ([]*field.Dist3D, []*Result, error) {
		p := waveParams(matrixNX, matrixNY, matrixNZ)
		dir := t.TempDir()
		if _, _, err := RunParallel(p, from, Options{
			Phases:     matrixSteps,
			Checkpoint: &CheckpointSpec{Dir: dir, Interval: matrixSteps / 2},
		}); err != nil {
			return nil, nil, err
		}
		snap, err := checkpoint.LatestRun(dir)
		if err != nil {
			return nil, nil, err
		}
		return RunParallel(p, to, Options{
			Phases:     matrixSteps,
			Checkpoint: &CheckpointSpec{Dir: t.TempDir(), Interval: matrixSteps, Snapshot: snap},
		})
	}
}

// The distributed solver must hold bit-identity on the smallest slabs
// the frame protocol allows — two planes — on every group size, where
// both edges of a slab are its only planes and, on two ranks, one peer
// is both neighbors. The one-plane-slab lattices the solver used to
// accept keep their rows, one per legacy protocol variant, and must
// now be refused with the slab-floor error.
func TestBitIdentityTinySlabs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		nx, ranks int
	}{
		// Slabs of 2, 1, 1, 1 planes.
		{"5planes-4ranks", 5, 4},
		// Every slab a single plane.
		{"4planes-4ranks", 4, 4},
		// Two single-plane slabs, one peer on both sides.
		{"2planes-2ranks", 2, 2},
	} {
		for _, legacy := range legacyProtocols {
			t.Run(tc.name+"/"+legacy, func(t *testing.T) {
				_, _, err := RunParallel(waveParams(tc.nx, 8, 5), tc.ranks, Options{Phases: 6})
				want := fmt.Sprintf("%d planes cannot give %d ranks %d planes each", tc.nx, tc.ranks, MinSlabPlanes)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("got %v, want the slab-floor error %q", err, want)
				}
			})
		}
	}

	cases := []struct {
		name         string
		nx, ny, nz   int
		ranks, steps int
	}{
		// 4 planes on 2 ranks: two 2-plane slabs, one peer on both sides.
		{"4planes-2ranks", 4, 8, 5, 2, 6},
		// 5 planes on 2 ranks: slabs of 3 and 2 planes.
		{"5planes-2ranks", 5, 8, 5, 2, 6},
		// 8 planes on 4 ranks: every slab at the floor.
		{"8planes-4ranks", 8, 8, 5, 4, 6},
		// 2 planes on 1 rank: the rank's frames wrap onto itself.
		{"2planes-1rank", 2, 8, 5, 1, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := lbm.NewSim(waveParams(tc.nx, tc.ny, tc.nz))
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(tc.steps)
			final, _, err := RunParallel(waveParams(tc.nx, tc.ny, tc.nz), tc.ranks, Options{Phases: tc.steps})
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < ref.P.NComp(); c++ {
				for x := 0; x < tc.nx; x++ {
					want, got := ref.Plane(c, x), final[c].Plane(x)
					for i := range want {
						if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
							t.Fatalf("comp %d plane %d index %d: %v != %v", c, x, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// advance steps s n steps on the production path (RunSupervised with no
// supervisor), failing t if a worker panicked.
func advance(t *testing.T, s lbm.Stepper, n int) {
	t.Helper()
	if _, err := s.RunSupervised(n, nil); err != nil {
		t.Fatal(err)
	}
}
