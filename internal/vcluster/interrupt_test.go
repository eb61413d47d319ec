package vcluster

import (
	"context"
	"errors"
	"testing"

	"microslip/internal/balance"
	"microslip/internal/runctl"
)

// A cancelled virtual-cluster run returns the typed cause and the
// partial trajectory simulated so far instead of dying mid-run.
func TestRunInterruptedReturnsPartialResult(t *testing.T) {
	cfg := DefaultConfig(balance.NoRemap(), Dedicated(4), 100)
	cfg.RecordTimeline = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	res, err := Run(cfg)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("interrupted run returned no partial result")
	}
	if res.CompletedPhases != 0 {
		t.Fatalf("pre-cancelled run simulated %d phases", res.CompletedPhases)
	}
	if len(res.Timeline.PhaseEnd) != 0 {
		t.Fatalf("pre-cancelled run recorded %d timeline entries", len(res.Timeline.PhaseEnd))
	}
}

// An uninterrupted run reports CompletedPhases == Phases and a nil Ctx
// behaves exactly as before.
func TestRunCompletedPhasesFull(t *testing.T) {
	cfg := DefaultConfig(balance.NoRemap(), Dedicated(4), 50)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedPhases != 50 {
		t.Fatalf("CompletedPhases = %d, want 50", res.CompletedPhases)
	}
}
