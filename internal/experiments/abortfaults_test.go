package experiments

import (
	"testing"
	"time"
)

func TestWorkerInjectorPanicAt(t *testing.T) {
	inj := newWorkerInjector([]workerRule{{kind: panicAt, id: 1, step: 3}})
	var calls []int
	hook := inj.hook(func(id, step int) { calls = append(calls, id*100+step) })

	hook(0, 3) // wrong id
	hook(1, 2) // wrong step
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("matching (id, step) did not panic")
			}
		}()
		hook(1, 3)
	}()
	hook(1, 3) // count exhausted: no second panic
	if got := inj.counters(); got.panics != 1 {
		t.Fatalf("counters = %+v, want 1 panic", got)
	}
	// next ran on every call, including the panicking one.
	if len(calls) != 4 || calls[2] != 103 {
		t.Fatalf("next hook calls = %v", calls)
	}
}

func TestWorkerInjectorStallAndAny(t *testing.T) {
	inj := newWorkerInjector([]workerRule{
		{kind: stallFor, id: anyID, step: 1, stall: 20 * time.Millisecond, count: 2},
	})
	hook := inj.hook(nil)
	start := time.Now()
	hook(0, 1)
	hook(5, 1)
	hook(9, 1) // budget spent
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("two stalls took %v, want >= 40ms", el)
	}
	if got := inj.counters(); got.stalls != 2 {
		t.Fatalf("counters = %+v, want 2 stalls", got)
	}
}

func TestAbortSchedulesCoverShapes(t *testing.T) {
	scheds := abortSchedules(7, 5, 4, 20, 6)
	if len(scheds) != 5 {
		t.Fatalf("got %d schedules, want 5", len(scheds))
	}
	var cancels, panics, stalls int
	for i, s := range scheds {
		for _, r := range s.rules {
			if r.step < 6 || r.step >= 20 {
				t.Fatalf("schedule %d rule fires at %d, outside [6, 20)", i, r.step)
			}
			switch r.kind {
			case panicAt:
				panics++
			case stallFor:
				stalls++
			}
		}
		if s.cancelAtPhase >= 0 {
			cancels++
			if s.cancelAtPhase < 6 || s.cancelAtPhase >= 20 {
				t.Fatalf("schedule %d cancels at %d, outside [6, 20)", i, s.cancelAtPhase)
			}
		}
	}
	if cancels == 0 || panics == 0 || stalls == 0 {
		t.Fatalf("shape coverage: cancels=%d panics=%d stalls=%d, want all > 0", cancels, panics, stalls)
	}
	// Seeded: the same seed reproduces the same plan.
	again := abortSchedules(7, 5, 4, 20, 6)
	for i := range scheds {
		if scheds[i].cancelAtPhase != again[i].cancelAtPhase || len(scheds[i].rules) != len(again[i].rules) {
			t.Fatalf("schedule %d not reproducible", i)
		}
	}
}
