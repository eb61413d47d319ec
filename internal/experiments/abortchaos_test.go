package experiments

import "testing"

// TestAbortChaos pins the abort-safety acceptance bar: across the
// default seeded schedule mix (pure cancels, worker panics, worker
// stalls + cancel) and all four intra-node variants, every run stops
// with a typed cause, leaks zero goroutines, leaves a committed
// checkpoint, and resumes bit-identically to the uninterrupted
// reference.
func TestAbortChaos(t *testing.T) {
	res, err := RunAbortChaos(DefaultAbortChaos())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if !res.AllClean() {
		t.Fatalf("abort chaos not clean:\n%s", res)
	}
	// The default mix must actually contain all three distributed
	// shapes, or the gate is weaker than it claims.
	var cancels, panics, stalls int
	for _, run := range res.Runs {
		switch {
		case run.Cause == "panic":
			panics++
		case run.Cause == "canceled":
			cancels++
		}
		if len(run.Name) >= 10 && run.Name[:10] == "dist/stall" {
			stalls++
		}
	}
	if cancels == 0 || panics == 0 || stalls == 0 {
		t.Fatalf("shape coverage: cancels=%d panics=%d stalls=%d", cancels, panics, stalls)
	}
}

// A second seed, to keep the gate from overfitting one schedule plan.
func TestAbortChaosAltSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("alt seed skipped in -short")
	}
	setup := DefaultAbortChaos()
	setup.Seed = 42
	res, err := RunAbortChaos(setup)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllClean() {
		t.Fatalf("abort chaos (seed 42) not clean:\n%s", res)
	}
}

// The sweep refuses setups below the schedule floor or whose checkpoint
// period leaves no room for an event after the first commit.
func TestChaosRejectsBadSetup(t *testing.T) {
	s := DefaultAbortChaos()
	s.Schedules = 4
	if _, err := RunAbortChaos(s); err == nil {
		t.Error("expected error for 4 schedules")
	}
	for _, interval := range []int{0, s.Phases - 1} {
		s = DefaultAbortChaos()
		s.CheckpointInterval = interval
		if _, err := RunAbortChaos(s); err == nil {
			t.Errorf("expected error for checkpoint interval %d over %d phases", interval, s.Phases)
		}
	}
}
