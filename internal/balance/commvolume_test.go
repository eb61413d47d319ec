package balance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Communication-volume analysis for the decomposition choice of
// Section 2.2: the paper picks 1-D slices along x "because of the
// special geometry in our application (the x direction is much longer
// than the y and z directions)". These helpers quantify the trade-off:
// halo cells and message count exchanged per phase per rank for slice,
// box (2-D), and cube (3-D) partitions of an NX x NY x NZ lattice.
//
// The analysis shows the geometry argument is about *message count and
// structure*, not raw volume: even for the elongated 400x200x20
// channel on 20 ranks, the best 5x4 box moves ~35% fewer halo cells
// than slices (5,200 vs 8,000) — but it doubles the messages per
// phase, requires strided packing instead of contiguous planes, and,
// decisively, breaks the 1-D chain on which the paper's plane-
// granularity dynamic remapping operates. For near-cubic domains the
// volume gap grows to several-fold and higher-dimensional partitions
// (e.g. Kandhai's ORB) become compelling.

// SliceHaloCells returns the per-rank halo size (lattice cells sent per
// phase, both directions) for a 1-D slice decomposition along x over p
// ranks: two NY x NZ planes.
func SliceHaloCells(nx, ny, nz, p int) int {
	if p < 1 || nx < p {
		panic(fmt.Sprintf("balance: cannot slice %d planes over %d ranks", nx, p))
	}
	return 2 * ny * nz
}

// Grid2D returns the (px, py) factorization of p that minimizes the
// per-rank halo for a 2-D box decomposition over x and y.
func Grid2D(nx, ny, nz, p int) (px, py int) {
	best := math.MaxInt
	px, py = p, 1
	for a := 1; a <= p; a++ {
		if p%a != 0 {
			continue
		}
		b := p / a
		if nx < a || ny < b {
			continue
		}
		h := haloBox(nx, ny, nz, a, b)
		if h < best {
			best = h
			px, py = a, b
		}
	}
	return px, py
}

func haloBox(nx, ny, nz, px, py int) int {
	h := 0
	if px > 1 {
		h += 2 * ceilDiv(ny, py) * nz
	}
	if py > 1 {
		h += 2 * ceilDiv(nx, px) * nz
	}
	return h
}

// BoxHaloCells returns the per-rank halo size for the best 2-D box
// decomposition of p ranks over the x-y plane.
func BoxHaloCells(nx, ny, nz, p int) int {
	px, py := Grid2D(nx, ny, nz, p)
	return haloBox(nx, ny, nz, px, py)
}

// CubeHaloCells returns the per-rank halo size for the best 3-D
// decomposition (px x py x pz = p).
func CubeHaloCells(nx, ny, nz, p int) int {
	best := math.MaxInt
	for a := 1; a <= p; a++ {
		if p%a != 0 {
			continue
		}
		rest := p / a
		for b := 1; b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if nx < a || ny < b || nz < c {
				continue
			}
			h := 0
			if a > 1 {
				h += 2 * ceilDiv(ny, b) * ceilDiv(nz, c)
			}
			if b > 1 {
				h += 2 * ceilDiv(nx, a) * ceilDiv(nz, c)
			}
			if c > 1 {
				h += 2 * ceilDiv(nx, a) * ceilDiv(ny, b)
			}
			if h < best {
				best = h
			}
		}
	}
	if best == math.MaxInt {
		panic(fmt.Sprintf("balance: no feasible 3-D factorization of %d ranks for %dx%dx%d", p, nx, ny, nz))
	}
	return best
}

// Messages returns the point-to-point messages per rank per exchange
// for each strategy (interior ranks): 2 for slices, up to 4 for boxes,
// up to 6 for cubes.
func Messages(nx, ny, nz, p int) (slice, box, cube int) {
	slice = 2
	px, py := Grid2D(nx, ny, nz, p)
	if px > 1 {
		box += 2
	}
	if py > 1 {
		box += 2
	}
	// For the cube count, reuse the best factorization's dimensionality
	// bound: conservatively assume all used dimensions exchange.
	cube = box
	if cube < 6 && p >= 8 && nz >= 2 {
		// A 3-D factorization may add the z pair when it helps.
		cube = box + 2
	}
	return slice, box, cube
}

// DecompositionReport compares the strategies for a domain and rank
// count by halo volume (sorted best-first), with the structural
// caveats that justify the paper's slice choice.
func DecompositionReport(nx, ny, nz, p int) string {
	type row struct {
		name  string
		cells int
	}
	rows := []row{
		{"1-D slice (paper)", SliceHaloCells(nx, ny, nz, p)},
		{"2-D box", BoxHaloCells(nx, ny, nz, p)},
		{"3-D cube", CubeHaloCells(nx, ny, nz, p)},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cells < rows[j].cells })
	out := fmt.Sprintf("halo cells per rank per phase, %dx%dx%d over %d ranks:\n", nx, ny, nz, p)
	for _, r := range rows {
		out += fmt.Sprintf("  %-18s %8d\n", r.name, r.cells)
	}
	out += "slices exchange 2 contiguous planes per rank; boxes/cubes need\n" +
		"more messages, strided packing, and give up the linear chain that\n" +
		"plane-granularity dynamic remapping requires.\n"
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// For the paper's elongated microchannel (400 x 200 x 20) on 20 nodes,
// the slice halo volume is within 2x of the best box — close enough
// that the slice's structural advantages (2 contiguous messages, the
// linear remapping chain) dominate. For a cubic domain the volume gap
// blows up and the trade flips.
func TestSliceCompetitiveForPaperGeometry(t *testing.T) {
	nx, ny, nz, p := 400, 200, 20, 20
	slice := SliceHaloCells(nx, ny, nz, p)
	box := BoxHaloCells(nx, ny, nz, p)
	if slice != 2*200*20 {
		t.Errorf("slice halo = %d, want 8000", slice)
	}
	if float64(slice) > 2*float64(box) {
		t.Errorf("slice halo %d more than 2x the best box %d; geometry argument broken", slice, box)
	}
	// The slice costs only 2 messages; the best box needs 4.
	ms, mb, _ := Messages(nx, ny, nz, p)
	if ms != 2 || mb <= ms {
		t.Errorf("messages slice %d box %d; slice should send fewer", ms, mb)
	}
	rep := DecompositionReport(nx, ny, nz, p)
	if !strings.Contains(rep, "1-D slice") || !strings.Contains(rep, "remapping") {
		t.Errorf("report incomplete:\n%s", rep)
	}
	// The cubic contrast: the same rank count on 128^3 makes slices
	// ~3x worse than the paper-geometry ratio.
	ratioPaper := float64(slice) / float64(box)
	ratioCube := float64(SliceHaloCells(128, 128, 128, 20)) / float64(BoxHaloCells(128, 128, 128, 20))
	if ratioCube <= ratioPaper {
		t.Errorf("cubic domain ratio %.2f <= paper geometry ratio %.2f", ratioCube, ratioPaper)
	}
}

// For a cubic domain at high rank counts, higher-dimensional
// decompositions win — the standard result the paper's geometry
// argument sidesteps.
func TestCubeWinsForCubicDomain(t *testing.T) {
	nx, ny, nz, p := 128, 128, 128, 64
	slice := SliceHaloCells(nx, ny, nz, p)
	cube := CubeHaloCells(nx, ny, nz, p)
	if cube >= slice {
		t.Errorf("cube halo %d >= slice %d for a cubic domain", cube, slice)
	}
}

func TestGrid2DFactorization(t *testing.T) {
	px, py := Grid2D(400, 200, 20, 20)
	if px*py != 20 {
		t.Fatalf("Grid2D factors %dx%d != 20", px, py)
	}
	// The volume-optimal box for the elongated channel is 5x4 (5,200
	// halo cells), not 20x1: raw volume alone does not pick slices.
	if px != 5 || py != 4 {
		t.Errorf("Grid2D = %dx%d; expected the 5x4 volume optimum", px, py)
	}
}

// Property: halo sizes are positive and the best 3-D decomposition is
// never worse than the best 2-D one, which is never worse than the
// slice (they are supersets of each other's search spaces).
func TestDecompositionHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := 16 + rng.Intn(200)
		ny := 16 + rng.Intn(200)
		nz := 16 + rng.Intn(64)
		p := 2 + rng.Intn(14)
		if nx < p {
			return true // slice infeasible; skip
		}
		slice := SliceHaloCells(nx, ny, nz, p)
		box := BoxHaloCells(nx, ny, nz, p)
		cube := CubeHaloCells(nx, ny, nz, p)
		return cube <= box && box <= slice && cube > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSliceHaloPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for infeasible slice")
		}
	}()
	SliceHaloCells(4, 10, 10, 8)
}
