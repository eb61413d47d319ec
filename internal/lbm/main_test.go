package lbm

import (
	"testing"

	"microslip/internal/num"
	"microslip/internal/testutil/leakcheck"
)

// The whole suite runs under a goroutine-leak gate: any worker pool,
// prober, or rank goroutine that outlives its run fails the binary.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// advance steps s n steps on the production path, RunSupervised with no
// supervisor, failing t if a worker panicked.
func advance(t testing.TB, s Stepper, n int) {
	t.Helper()
	if _, err := s.RunSupervised(n, nil); err != nil {
		t.Fatal(err)
	}
}

// advanceWake steps s n steps in one runParallelErr call: the
// multi-step path the refined fine blocks run their two sub-steps on.
func advanceWake[T num.Float](t testing.TB, s *SimOf[T], n int) {
	t.Helper()
	if err := s.runParallelErr(n); err != nil {
		t.Fatal(err)
	}
}
