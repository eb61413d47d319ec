package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Worker faults for the abort-chaos sweep: a workerInjector wraps a
// rank hook (parlbm's Options.PhaseHook, func(id, step int)) and fires
// panics or stalls at scheduled points. A panic exercises the
// hard-abort path (runctl.PanicError, supervised unwind); a stall
// exercises the soft path (wall-clock escalation, orderly stop).

// workerFaultKind is a compute-side fault kind.
type workerFaultKind int

const (
	// panicAt panics inside the hook, as if the worker's own step code
	// faulted.
	panicAt workerFaultKind = iota
	// stallFor sleeps inside the hook, modeling a compute hiccup (page
	// fault storm, noisy neighbor) rather than a crash.
	stallFor
)

func (k workerFaultKind) String() string {
	switch k {
	case panicAt:
		return "panic"
	case stallFor:
		return "stall"
	default:
		return fmt.Sprintf("workerFaultKind(%d)", int(k))
	}
}

// anyID matches every id or step in a workerRule.
const anyID = -1

// workerRule fires a compute fault when the wrapped hook is called
// with a matching (id, step) pair.
type workerRule struct {
	kind workerFaultKind
	// id is the rank the fault targets; anyID matches all.
	id int
	// step is the phase the fault fires at; anyID matches all.
	step int
	// stall is the sleep for stallFor rules.
	stall time.Duration
	// count bounds firings; below 1 means exactly 1.
	count int
}

// workerCounters reports what a workerInjector actually did.
type workerCounters struct {
	panics, stalls int
}

// workerInjector applies workerRules from inside a wrapped hook. Safe
// for concurrent use: distributed hooks run on every rank goroutine.
type workerInjector struct {
	mu    sync.Mutex
	rules []workerRule
	fired []int
	ctr   workerCounters
}

func newWorkerInjector(rules []workerRule) *workerInjector {
	return &workerInjector{rules: rules, fired: make([]int, len(rules))}
}

// counters returns a snapshot of the firing counts.
func (w *workerInjector) counters() workerCounters {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ctr
}

// hook wraps next (which may be nil) with the injector. A matching
// stallFor rule sleeps, then next runs; a matching panicAt rule runs
// next first (so the step is otherwise normal up to the fault) and then
// panics.
func (w *workerInjector) hook(next func(id, step int)) func(id, step int) {
	return func(id, step int) {
		var stall time.Duration
		boom := false
		w.mu.Lock()
		for i := range w.rules {
			r := &w.rules[i]
			max := r.count
			if max < 1 {
				max = 1
			}
			if w.fired[i] >= max {
				continue
			}
			if r.id != anyID && r.id != id {
				continue
			}
			if r.step != anyID && r.step != step {
				continue
			}
			w.fired[i]++
			switch r.kind {
			case panicAt:
				boom = true
				w.ctr.panics++
			case stallFor:
				stall += r.stall
				w.ctr.stalls++
			}
		}
		w.mu.Unlock()
		if stall > 0 {
			time.Sleep(stall)
		}
		if next != nil {
			next(id, step)
		}
		if boom {
			panic(fmt.Sprintf("abortchaos: worker fault at id %d step %d", id, step))
		}
	}
}

// abortSchedule is one seeded abort-chaos scenario: a compute fault
// plan plus where the external interrupt (cancel) lands, if anywhere.
type abortSchedule struct {
	// cancelAtPhase is the phase whose hook triggers context
	// cancellation; negative means no cancel (the fault itself ends the
	// run).
	cancelAtPhase int
	// rules is the compute-fault plan (may be empty: pure-cancel
	// schedules).
	rules []workerRule
}

// abortSchedules builds n seeded abort scenarios for a group of the
// given size running the given number of phases. The mix always covers
// the required shapes: pure cancel, worker panic, and worker stall +
// cancel; extra schedules vary placement. minPhase keeps every event
// late enough that at least one periodic checkpoint (interval ≤
// minPhase) has committed first.
func abortSchedules(seed int64, n, ranks, phases, minPhase int) []abortSchedule {
	rng := rand.New(rand.NewSource(seed))
	if minPhase < 1 {
		minPhase = 1
	}
	span := phases - minPhase
	if span < 1 {
		span = 1
	}
	at := func() int { return minPhase + rng.Intn(span) }
	out := make([]abortSchedule, 0, n)
	for i := 0; i < n; i++ {
		var s abortSchedule
		switch i % 3 {
		case 0: // pure cancel
			s.cancelAtPhase = at()
		case 1: // worker panic, no cancel
			s.cancelAtPhase = -1
			s.rules = []workerRule{{kind: panicAt, id: rng.Intn(ranks), step: at()}}
		default: // stall then cancel
			p := at()
			s.rules = []workerRule{{
				kind: stallFor, id: rng.Intn(ranks), step: p,
				stall: time.Duration(1+rng.Intn(5)) * time.Millisecond,
			}}
			s.cancelAtPhase = p
		}
		out = append(out, s)
	}
	return out
}
