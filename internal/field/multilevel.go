package field

import "fmt"

// Two-level refined-grid geometry. The refined solver keeps three
// blocks of storage — a fine slab against each y wall and a coarse bulk
// lattice at half resolution — and couples them through overlapping
// ghost rows. This file owns the index arithmetic: block dimensions
// and the coarse<->fine cell maps. The alignment is staggered
// volumetric: one coarse cell covers a 2x2x2 brick of fine cells, so
// coarse cell centers sit at fine-coordinate half-offsets and the
// bounce-back wall planes of the coarse lattice land exactly on the
// fine lattice's wall planes (a collocated alignment would shift the
// z walls by one fine unit).
//
// Row layout along y, in local row indices (D = WallLayers):
//
//	bottom slab (NY = D+6): 0 wall | 1..D owned | D+1..D+4 ghost | D+5 closure
//	top slab    (NY = D+6): 0 closure | 1..4 ghost | 5..D+4 owned | D+5 wall
//	coarse      (NY = nb+6): 0 closure | 1,2 ghost | 3..nb+2 owned | nb+3,nb+4 ghost | nb+5 closure
//
// where nb = (GlobalNY-2-2D)/2 and "closure" rows are fake solid walls
// that close each block for the unmodified kernel; the rows they
// pollute are exactly the ghost rows, which are overwritten from the
// other level every composite step. Four fine ghost rows absorb the
// two-rows-per-step stencil reach of the two fine sub-steps between
// exchanges; two coarse ghost rows absorb the one coarse step.

// FineGhostRows is the ghost-row depth of a fine wall slab: the
// stencil reach (psi-gradient plus streaming) is two rows per step and
// the fine level runs two sub-steps between ghost exchanges.
const FineGhostRows = 4

// CoarseGhostRows is the ghost-row depth of the coarse bulk block:
// reach two, one step per exchange.
const CoarseGhostRows = 2

// MultiLevel describes the block decomposition of a two-level refined
// NX x NY x NZ channel with D fine fluid rows kept against each y wall.
type MultiLevel struct {
	NX, NY, NZ int // global fine dimensions
	D          int // fine fluid rows per y wall (WallLayers)
}

// NewMultiLevel validates the decomposition. The constraints are the
// parity and depth requirements of the staggered alignment: NX, NY, NZ
// even so every coarse cell covers a full 2x2x2 fine brick; D >= 4 so
// the coalescence sources (fine owned rows D-3..D) stay inside the
// owned region; NY >= 2D+10 so the coarse block keeps at least four
// owned rows between the two interface regions.
func NewMultiLevel(nx, ny, nz, d int) (MultiLevel, error) {
	m := MultiLevel{NX: nx, NY: ny, NZ: nz, D: d}
	if d < 4 {
		return m, fmt.Errorf("field: refinement wall layers %d < 4", d)
	}
	if nx < 2 || nx%2 != 0 {
		return m, fmt.Errorf("field: refined NX %d must be even and >= 2", nx)
	}
	if nz < 4 || nz%2 != 0 {
		return m, fmt.Errorf("field: refined NZ %d must be even and >= 4", nz)
	}
	if ny%2 != 0 {
		return m, fmt.Errorf("field: refined NY %d must be even", ny)
	}
	if ny < 2*d+10 {
		return m, fmt.Errorf("field: refined NY %d < 2*%d+10 (coarse block needs >= 4 owned rows)", ny, d)
	}
	return m, nil
}

// FineNY returns the y extent of each fine wall slab: D owned fluid
// rows, FineGhostRows ghosts, one real wall and one closure row.
func (m MultiLevel) FineNY() int { return m.D + FineGhostRows + 2 }

// CoarseOwnedRows returns nb, the coarse rows exclusively owning bulk
// fluid.
func (m MultiLevel) CoarseOwnedRows() int { return (m.NY - 2 - 2*m.D) / 2 }

// CoarseDims returns the coarse block dimensions. NZc = NZ/2+1 places
// the coarse z walls so their bounce-back planes coincide exactly with
// the fine lattice's z wall planes under the staggered map.
func (m MultiLevel) CoarseDims() (nx, ny, nz int) {
	return m.NX / 2, m.CoarseOwnedRows() + 2*CoarseGhostRows + 2, m.NZ/2 + 1
}

// CoarseYPos returns the global fine y coordinate of the center of
// coarse row r: the row covers global fine rows {2r+D-5, 2r+D-4}.
func (m MultiLevel) CoarseYPos(r int) float64 { return float64(2*r+m.D) - 4.5 }

// CoarseRowFineRows returns the two global fine rows coarse row r
// covers.
func (m MultiLevel) CoarseRowFineRows(r int) (lo, hi int) {
	lo = 2*r + m.D - 5
	return lo, lo + 1
}

// CoarseZFineZ returns the two global fine z indices coarse column zc
// covers (fluid columns only, zc in 1..NZc-2).
func (m MultiLevel) CoarseZFineZ(zc int) (lo, hi int) { return 2*zc - 1, 2 * zc }

// TopSlabY0 returns the global fine row of the top slab's local row 0.
func (m MultiLevel) TopSlabY0() int { return m.NY - m.FineNY() }
