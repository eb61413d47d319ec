package experiments

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// mustFn builds an unwrapper for metric values whose inputs are known
// good.
func mustFn(t *testing.T) func(float64, error) float64 {
	return func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return v
	}
}

func TestSpeedup(t *testing.T) {
	must := mustFn(t)
	if got := must(Speedup(100, 5)); got != 20 {
		t.Errorf("Speedup = %v, want 20", got)
	}
}

func TestNormalizedEfficiency(t *testing.T) {
	must := mustFn(t)
	// Paper's example: 20 nodes, m slow at 70%: speedup/(20-0.7m).
	got := must(NormalizedEfficiency(13, 20, 5, 0.7))
	want := 13.0 / 16.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NormalizedEfficiency = %v, want %v", got, want)
	}
	// No slow nodes reduces to plain efficiency.
	if must(NormalizedEfficiency(19, 20, 0, 0.7)) != must(Efficiency(19, 20)) {
		t.Error("m=0 does not reduce to plain efficiency")
	}
}

func TestSlowdownRatio(t *testing.T) {
	must := mustFn(t)
	if got := must(SlowdownRatio(717, 251)); math.Abs(got-1.8566) > 1e-3 {
		t.Errorf("SlowdownRatio(717, 251) = %v, want ~1.856 (paper's 185.6%%)", got)
	}
	if got := must(OverheadPercent(313, 251)); math.Abs(got-24.7) > 0.1 {
		t.Errorf("OverheadPercent(313, 251) = %v, want ~24.7", got)
	}
}

// Degenerate inputs return a typed InputError wrapping ErrBadInput —
// never a panic: the callers are fed measured data.
func TestDegenerateInputs(t *testing.T) {
	for name, fn := range map[string]func() (float64, error){
		"speedup":    func() (float64, error) { return Speedup(1, 0) },
		"efficiency": func() (float64, error) { return Efficiency(1, 0) },
		"normeff":    func() (float64, error) { return NormalizedEfficiency(1, 2, 3, 1) },
		"slowdown":   func() (float64, error) { return SlowdownRatio(1, 0) },
		"overhead":   func() (float64, error) { return OverheadPercent(1, 0) },
	} {
		_, err := fn()
		if err == nil {
			t.Errorf("%s: expected an error on degenerate input", name)
			continue
		}
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: error %v does not wrap ErrBadInput", name, err)
		}
		var ie *InputError
		if !errors.As(err, &ie) {
			t.Errorf("%s: error %v is not an *InputError", name, err)
		} else if ie.Metric == "" || ie.Reason == "" {
			t.Errorf("%s: InputError incomplete: %+v", name, ie)
		}
	}
}

// Property: identities between the metrics hold for random inputs.
func TestMetricIdentities(t *testing.T) {
	f := func(seqRaw, parRaw float64) bool {
		seq := 1 + math.Abs(math.Mod(seqRaw, 1e4))
		par := 0.1 + math.Abs(math.Mod(parRaw, 1e3))
		s, err := Speedup(seq, par)
		if err != nil {
			return false
		}
		eff, err := Efficiency(s, 10)
		if err != nil || math.Abs(eff-s/10) > 1e-12 {
			return false
		}
		// Slowdown of the baseline against itself is zero.
		sd, err := SlowdownRatio(par, par)
		return err == nil && sd == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
