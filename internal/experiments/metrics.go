package experiments

import (
	"errors"
	"fmt"
)

// The performance figures the paper reports: speedup, the normalized
// efficiency of Section 4.2.1, and slowdown ratios relative to a
// dedicated run.
//
// Degenerate inputs (a zero parallel time, a negative node count, an
// effective capacity eaten entirely by background load) are reported as
// typed errors wrapping ErrBadInput rather than panics: the callers are
// experiment drivers and report renderers fed by measured — sometimes
// garbage — data, and a bad sample must fail that sample, not the
// process.

// ErrBadInput marks a metric evaluated on degenerate inputs; every
// InputError wraps it.
var ErrBadInput = errors.New("experiments: degenerate metric input")

// InputError describes which metric rejected which input.
type InputError struct {
	// Metric is the rejecting function's name.
	Metric string
	// Reason says what was wrong with the input.
	Reason string
}

func (e *InputError) Error() string {
	return fmt.Sprintf("experiments: %s: %s", e.Metric, e.Reason)
}

func (e *InputError) Unwrap() error { return ErrBadInput }

// badInput builds an InputError.
func badInput(metric, format string, args ...any) error {
	return &InputError{Metric: metric, Reason: fmt.Sprintf(format, args...)}
}

// Speedup is sequential time over parallel time.
func Speedup(sequential, parallel float64) (float64, error) {
	if parallel <= 0 {
		return 0, badInput("Speedup", "non-positive parallel time %v", parallel)
	}
	return sequential / parallel, nil
}

// Efficiency is speedup over the node count.
func Efficiency(speedup float64, p int) (float64, error) {
	if p < 1 {
		return 0, badInput("Efficiency", "invalid node count %d", p)
	}
	return speedup / float64(p), nil
}

// NormalizedEfficiency is the paper's utilization metric for a
// non-dedicated cluster: speedup / (P - load*m), where m nodes each
// lose `load` of their CPU to a background job (the paper uses
// speedup/(20 - 0.7m) for 70% background jobs).
func NormalizedEfficiency(speedup float64, p, slowNodes int, load float64) (float64, error) {
	cap := float64(p) - load*float64(slowNodes)
	if cap <= 0 {
		return 0, badInput("NormalizedEfficiency",
			"non-positive effective capacity %v (p=%d, %d slow at %v)", cap, p, slowNodes, load)
	}
	return speedup / cap, nil
}

// SlowdownRatio is the fractional execution-time increase over the
// dedicated baseline (Table 1 reports it in percent).
func SlowdownRatio(t, dedicated float64) (float64, error) {
	if dedicated <= 0 {
		return 0, badInput("SlowdownRatio", "non-positive dedicated time %v", dedicated)
	}
	return (t - dedicated) / dedicated, nil
}

// OverheadPercent is SlowdownRatio expressed in percent, the right-hand
// axis of Figure 3.
func OverheadPercent(t, dedicated float64) (float64, error) {
	r, err := SlowdownRatio(t, dedicated)
	if err != nil {
		return 0, err
	}
	return 100 * r, nil
}
