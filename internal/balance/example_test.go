package balance_test

import (
	"fmt"

	"microslip/internal/balance"
)

// A 3x-slow middle node sheds nearly all of its planes in one filtered
// remapping round (over-redistribution), while its fast neighbors are
// forbidden from feeding it.
func ExampleConfig_DecideAll() {
	cfg := balance.DefaultConfig(4000) // 200 x 20 lattice planes

	planes := []int{20, 20, 20}
	// Predicted next-phase times: node 1 is three times slower.
	predicted := []float64{0.4, 1.2, 0.4}

	desires := cfg.DecideAll(planes, predicted)
	transfers := cfg.Resolve(desires, planes)
	for _, tr := range transfers {
		fmt.Printf("move %d planes from node %d to node %d\n", tr.Planes, tr.From, tr.To)
	}
	// Output:
	// move 9 planes from node 1 to node 0
	// move 9 planes from node 1 to node 2
}

// Slice decomposition of the paper's 400-plane lattice over 4 ranks,
// then a remapping round shifting planes toward the faster neighbors.
func ExamplePartition_Apply() {
	part := balance.Even(400, 4)
	fmt.Println("initial:", part.Counts())

	next, err := part.Apply([]balance.Transfer{
		{From: 1, To: 0, Planes: 40},
		{From: 1, To: 2, Planes: 45},
	}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("after:  ", next.Counts())
	start, end := next.Range(0)
	fmt.Printf("rank 0 now owns planes [%d, %d)\n", start, end)
	// Output:
	// initial: [100 100 100 100]
	// after:   [140 15 145 100]
	// rank 0 now owns planes [0, 140)
}

// One transient spike among ten phases barely moves the harmonic mean —
// the property that makes the paper's remapping "lazy" — while the
// last-value predictor overreacts by a factor of 25.
func ExampleHarmonicMean() {
	h := balance.NewHarmonicMean(10)
	l := balance.NewLastValue()
	for i := 0; i < 9; i++ {
		h.Observe(0.4)
		l.Observe(0.4)
	}
	h.Observe(10.0) // a 25x load spike in the most recent phase
	l.Observe(10.0)
	fmt.Printf("harmonic:   %.2f s\n", h.Predict())
	fmt.Printf("last-value: %.2f s\n", l.Predict())
	// Output:
	// harmonic:   0.44 s
	// last-value: 10.00 s
}
