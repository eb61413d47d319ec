package balance

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvenPartition(t *testing.T) {
	pt := Even(400, 20)
	if pt.P() != 20 {
		t.Fatalf("P = %d", pt.P())
	}
	for r := 0; r < 20; r++ {
		if pt.Count(r) != 20 {
			t.Errorf("rank %d count = %d, want 20", r, pt.Count(r))
		}
	}
	if err := pt.Validate(); err != nil {
		t.Error(err)
	}
	// Uneven split spreads the remainder over the first ranks.
	pt = Even(10, 3)
	want := []int{4, 3, 3}
	for r, w := range want {
		if pt.Count(r) != w {
			t.Errorf("rank %d count = %d, want %d", r, pt.Count(r), w)
		}
	}
}

func TestApplyTransfers(t *testing.T) {
	pt := Even(12, 3) // 4,4,4
	next, err := pt.Apply([]Transfer{
		{From: 1, To: 2, Planes: 2},
		{From: 1, To: 0, Planes: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := []int{5, 1, 6}
	for r, w := range wantCounts {
		if next.Count(r) != w {
			t.Errorf("rank %d count = %d, want %d", r, next.Count(r), w)
		}
	}
	// Total planes conserved.
	sum := 0
	for r := 0; r < 3; r++ {
		sum += next.Count(r)
	}
	if sum != 12 {
		t.Errorf("planes not conserved: %d", sum)
	}
	// The receiver is left untouched.
	for r := 0; r < 3; r++ {
		if pt.Count(r) != 4 {
			t.Errorf("Apply changed rank %d of its receiver to %d planes", r, pt.Count(r))
		}
	}
}

func TestApplyRejectsBadTransfers(t *testing.T) {
	pt := Even(12, 3)
	cases := []struct {
		name string
		ts   []Transfer
	}{
		{"non-neighbor", []Transfer{{From: 0, To: 2, Planes: 1}}},
		{"zero planes", []Transfer{{From: 0, To: 1, Planes: 0}}},
		{"out of range", []Transfer{{From: 0, To: -1, Planes: 1}}},
		{"drains below minKeep", []Transfer{{From: 1, To: 0, Planes: 2}, {From: 1, To: 2, Planes: 2}}},
	}
	for _, tc := range cases {
		if _, err := pt.Apply(tc.ts, 1); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// Property: applying any feasible random transfer set conserves total
// planes and keeps ranges contiguous.
func TestApplyConservesPlanes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(8)
		nx := p * (2 + rng.Intn(10))
		pt := Even(nx, p)
		for round := 0; round < 5; round++ {
			var ts []Transfer
			for r := 0; r < p; r++ {
				if pt.Count(r) < 3 {
					continue
				}
				n := 1 + rng.Intn(pt.Count(r)/3+1)
				if r+1 < p && rng.Intn(2) == 0 {
					ts = append(ts, Transfer{From: r, To: r + 1, Planes: n})
				} else if r > 0 {
					ts = append(ts, Transfer{From: r, To: r - 1, Planes: n})
				}
			}
			next, err := pt.Apply(ts, 1)
			if err != nil {
				continue // infeasible combination; skip round
			}
			sum := 0
			for r := 0; r < p; r++ {
				sum += next.Count(r)
			}
			if sum != nx || next.Validate() != nil {
				return false
			}
			pt = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProportionalTargets(t *testing.T) {
	got := ProportionalTargets(400, []float64{1, 1, 1, 1}, 1)
	for r, c := range got {
		if c != 100 {
			t.Errorf("equal speeds: rank %d got %d", r, c)
		}
	}
	// A slow node gets proportionally fewer planes.
	got = ProportionalTargets(40, []float64{1, 1, 0.5, 1, 1}, 1)
	sum := 0
	for _, c := range got {
		sum += c
	}
	if sum != 40 {
		t.Fatalf("targets sum to %d", sum)
	}
	if got[2] >= got[0] {
		t.Errorf("slow rank got %d >= fast rank %d", got[2], got[0])
	}
}

// Property: proportional targets always sum to the total, respect
// minKeep, and are monotone in speed.
func TestProportionalTargetsProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(10)
		total := p + rng.Intn(500)
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = 0.1 + rng.Float64()*3
		}
		got := ProportionalTargets(total, speeds, 1)
		sum := 0
		for r, c := range got {
			if c < 1 {
				t.Logf("rank %d below minKeep: %d", r, c)
				return false
			}
			sum += c
		}
		if sum != total {
			return false
		}
		// Monotonicity with slack 1 for rounding.
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if speeds[i] > speeds[j] && got[i] < got[j]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProportionalTargetsZeroSpeeds(t *testing.T) {
	got := ProportionalTargets(10, []float64{0, 0, 0}, 1)
	sum := 0
	for _, c := range got {
		sum += c
	}
	if sum != 10 {
		t.Errorf("zero-speed fallback sums to %d", sum)
	}
}

func TestTransfersForTargets(t *testing.T) {
	pt := Even(12, 3) // 4,4,4
	ts, err := TransfersForTargets(pt, []int{6, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	next, err := pt.Apply(ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{6, 4, 2}
	for r, w := range want {
		if next.Count(r) != w {
			t.Errorf("rank %d count %d, want %d", r, next.Count(r), w)
		}
	}
	// Each moved boundary is one transfer: 2 planes 1->0, 2 planes 2->1.
	if len(ts) != 2 || ts[0] != (Transfer{From: 1, To: 0, Planes: 2}) || ts[1] != (Transfer{From: 2, To: 1, Planes: 2}) {
		t.Errorf("transfers %v, want [{1 0 2} {2 1 2}]", ts)
	}
	// Identity targets need no transfers.
	ts, err = TransfersForTargets(pt, []int{4, 4, 4})
	if err != nil || len(ts) != 0 {
		t.Errorf("identity reshape produced %v (%v)", ts, err)
	}
	// Bad targets rejected.
	if _, err := TransfersForTargets(pt, []int{5, 5, 5}); err == nil {
		t.Error("wrong-sum targets accepted")
	}
}

// Property: TransfersForTargets reshapes any partition into any valid
// target exactly.
func TestTransfersForTargetsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(8)
		nx := p + rng.Intn(100)
		pt := Even(nx, p)
		// Random valid target: distribute nx with at least 0 each.
		targets := make([]int, p)
		left := nx
		for r := 0; r < p-1; r++ {
			targets[r] = rng.Intn(left - (p - 1 - r) + 1)
			left -= targets[r]
		}
		targets[p-1] = left
		ts, err := TransfersForTargets(pt, targets)
		if err != nil {
			return false
		}
		next, err := pt.Apply(ts, 0)
		if err != nil {
			return false
		}
		for r := 0; r < p; r++ {
			if next.Count(r) != targets[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
