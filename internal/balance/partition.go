package balance

import (
	"fmt"
	"sort"
)

// Partition assigns the x-planes [0, NX) to P ranks as contiguous
// ranges: rank r owns [Starts[r], Starts[r+1]). len(Starts) == P+1,
// Starts[0] == 0, Starts[P] == NX.
type Partition struct {
	NX     int
	Starts []int
}

// Even returns the balanced initial partition: every rank gets NX/P
// planes with the remainder spread over the first ranks (the paper's
// initial 20-plane slices for 400 planes on 20 nodes).
func Even(nx, p int) Partition {
	if nx < p || p < 1 {
		panic(fmt.Sprintf("balance: cannot split %d planes over %d ranks", nx, p))
	}
	starts := make([]int, p+1)
	base, rem := nx/p, nx%p
	pos := 0
	for r := 0; r < p; r++ {
		starts[r] = pos
		pos += base
		if r < rem {
			pos++
		}
	}
	starts[p] = nx
	return Partition{NX: nx, Starts: starts}
}

// P returns the number of ranks.
func (pt Partition) P() int { return len(pt.Starts) - 1 }

// Count returns the number of planes owned by rank r.
func (pt Partition) Count(r int) int { return pt.Starts[r+1] - pt.Starts[r] }

// Counts returns all per-rank plane counts.
func (pt Partition) Counts() []int {
	out := make([]int, pt.P())
	for r := range out {
		out[r] = pt.Count(r)
	}
	return out
}

// Range returns rank r's [start, end) plane range.
func (pt Partition) Range(r int) (start, end int) {
	return pt.Starts[r], pt.Starts[r+1]
}

// Validate checks structural invariants.
func (pt Partition) Validate() error {
	p := pt.P()
	if p < 1 {
		return fmt.Errorf("balance: empty partition")
	}
	if pt.Starts[0] != 0 || pt.Starts[p] != pt.NX {
		return fmt.Errorf("balance: range [%d,%d) does not cover [0,%d)", pt.Starts[0], pt.Starts[p], pt.NX)
	}
	for r := 0; r < p; r++ {
		if pt.Count(r) < 0 {
			return fmt.Errorf("balance: rank %d has negative count", r)
		}
	}
	return nil
}

// Transfer moves Planes x-planes from rank From to an adjacent rank To.
// Only neighbor transfers exist in the linear processor array; data
// always moves across one subdomain boundary.
type Transfer struct {
	From, To, Planes int
}

// Validate checks adjacency and a positive plane count.
func (t Transfer) Validate(p int) error {
	if t.From < 0 || t.From >= p || t.To < 0 || t.To >= p {
		return fmt.Errorf("balance: transfer ranks %d->%d out of range", t.From, t.To)
	}
	if t.To != t.From+1 && t.To != t.From-1 {
		return fmt.Errorf("balance: transfer %d->%d is not between neighbors", t.From, t.To)
	}
	if t.Planes <= 0 {
		return fmt.Errorf("balance: transfer of %d planes", t.Planes)
	}
	return nil
}

// Apply returns the partition after the given transfers, all taken to
// occur in the same remapping round. It fails if any rank would end up
// with fewer than minKeep planes (a rank must keep at least one plane
// so the linear exchange chain stays intact) or if any transfer is
// malformed.
func (pt Partition) Apply(ts []Transfer, minKeep int) (Partition, error) {
	p := pt.P()
	next := Partition{NX: pt.NX, Starts: append([]int(nil), pt.Starts...)}
	for _, t := range ts {
		if err := t.Validate(p); err != nil {
			return Partition{}, err
		}
		if t.To == t.From+1 {
			// Rightmost planes of From go to To: the boundary between
			// them moves left.
			next.Starts[t.From+1] -= t.Planes
		} else {
			// Leftmost planes of From go to To: the boundary moves right.
			next.Starts[t.From] += t.Planes
		}
	}
	for r := 0; r < p; r++ {
		if next.Count(r) < minKeep {
			return Partition{}, fmt.Errorf("balance: rank %d left with %d planes (< %d) after transfers", r, next.Count(r), minKeep)
		}
	}
	if err := next.Validate(); err != nil {
		return Partition{}, err
	}
	return next, nil
}

// ProportionalTargets distributes total planes over ranks proportionally
// to their speeds using largest-remainder rounding; every rank receives
// at least minKeep planes and the counts sum exactly to total. This is
// the assignment the global remapping scheme aims for.
func ProportionalTargets(total int, speeds []float64, minKeep int) []int {
	p := len(speeds)
	if p == 0 || total < p*minKeep {
		panic(fmt.Sprintf("balance: cannot give %d ranks at least %d of %d planes", p, minKeep, total))
	}
	var sum float64
	for _, s := range speeds {
		if s < 0 {
			panic("balance: negative speed")
		}
		sum += s
	}
	out := make([]int, p)
	if sum == 0 {
		// Degenerate: fall back to even split.
		base, rem := total/p, total%p
		for r := range out {
			out[r] = base
			if r < rem {
				out[r]++
			}
		}
		return out
	}
	spare := total - p*minKeep
	type frac struct {
		r    int
		frac float64
	}
	fr := make([]frac, p)
	assigned := 0
	for r, s := range speeds {
		exact := float64(spare) * s / sum
		whole := int(exact)
		out[r] = minKeep + whole
		assigned += whole
		fr[r] = frac{r: r, frac: exact - float64(whole)}
	}
	sort.Slice(fr, func(i, j int) bool {
		if fr[i].frac != fr[j].frac {
			return fr[i].frac > fr[j].frac
		}
		return fr[i].r < fr[j].r
	})
	for k := 0; k < spare-assigned; k++ {
		out[fr[k].r]++
	}
	return out
}

// TransfersForTargets computes the neighbor transfers that reshape cur
// into the partition with the given per-rank counts. Because ranks own
// contiguous ranges, the reshaping is fully determined by the boundary
// movements; a plane that must cross several ranks appears as one
// transfer per boundary crossed (matching how data physically moves
// through the linear array).
func TransfersForTargets(cur Partition, targets []int) ([]Transfer, error) {
	p := cur.P()
	if len(targets) != p {
		return nil, fmt.Errorf("balance: %d targets for %d ranks", len(targets), p)
	}
	sum := 0
	for _, c := range targets {
		if c < 0 {
			return nil, fmt.Errorf("balance: negative target")
		}
		sum += c
	}
	if sum != cur.NX {
		return nil, fmt.Errorf("balance: targets sum to %d, want %d", sum, cur.NX)
	}
	var ts []Transfer
	newStart := 0
	for r := 1; r < p; r++ {
		newStart += targets[r-1]
		d := newStart - cur.Starts[r]
		switch {
		case d > 0:
			// Boundary moves right: rank r's leftmost planes go to r-1.
			ts = append(ts, Transfer{From: r, To: r - 1, Planes: d})
		case d < 0:
			ts = append(ts, Transfer{From: r - 1, To: r, Planes: -d})
		}
	}
	return ts, nil
}
