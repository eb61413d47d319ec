package balance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyPredictorsReturnZero(t *testing.T) {
	ps := []Predictor{
		NewHarmonicMean(10), NewLastValue(), NewArithmeticMean(5),
		NewExpSmoothing(0.5), NewTendency(4),
	}
	for _, p := range ps {
		if got := p.Predict(); got != 0 {
			t.Errorf("%T: empty Predict = %v, want 0", p, got)
		}
	}
}

func TestHarmonicMeanConstantSeries(t *testing.T) {
	h := NewHarmonicMean(10)
	for i := 0; i < 20; i++ {
		h.Observe(0.4)
	}
	if math.Abs(h.Predict()-0.4) > 1e-12 {
		t.Errorf("Predict = %v, want 0.4", h.Predict())
	}
}

// The paper's motivating property: one spike among K observations
// barely moves the harmonic mean, while it shifts the arithmetic mean
// substantially.
func TestHarmonicMeanIsSpikeRobust(t *testing.T) {
	h := NewHarmonicMean(10)
	a := NewArithmeticMean(10)
	for i := 0; i < 9; i++ {
		h.Observe(0.4)
		a.Observe(0.4)
	}
	h.Observe(10.0) // one 25x spike
	a.Observe(10.0)
	if h.Predict() > 0.45 {
		t.Errorf("harmonic mean moved to %v after one spike", h.Predict())
	}
	if a.Predict() < 1.3 {
		t.Errorf("arithmetic mean only moved to %v; spike-robustness comparison broken", a.Predict())
	}
}

// Property: harmonic mean <= arithmetic mean for positive data (AM-HM
// inequality), and both lie within [min, max] of the window.
func TestHarmonicVsArithmetic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		h := NewHarmonicMean(k)
		a := NewArithmeticMean(k)
		lo, hi := math.Inf(1), math.Inf(-1)
		n := k + rng.Intn(20)
		vals := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := 0.01 + rng.Float64()*10
			h.Observe(v)
			a.Observe(v)
			vals = append(vals, v)
		}
		for _, v := range vals[len(vals)-min(k, len(vals)):] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		hp, ap := h.Predict(), a.Predict()
		return hp <= ap+1e-12 && hp >= lo-1e-12 && ap <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWindowEviction(t *testing.T) {
	a := NewArithmeticMean(3)
	for _, v := range []float64{100, 1, 2, 3} { // 100 must be evicted
		a.Observe(v)
	}
	if math.Abs(a.Predict()-2) > 1e-12 {
		t.Errorf("Predict = %v, want 2 (old value not evicted)", a.Predict())
	}
}

func TestLastValue(t *testing.T) {
	l := NewLastValue()
	l.Observe(1)
	l.Observe(7)
	if l.Predict() != 7 {
		t.Errorf("Predict = %v, want 7", l.Predict())
	}
}

func TestExpSmoothing(t *testing.T) {
	e := NewExpSmoothing(0.5)
	e.Observe(2)
	e.Observe(4)
	if math.Abs(e.Predict()-3) > 1e-12 {
		t.Errorf("Predict = %v, want 3", e.Predict())
	}
	// alpha = 1 tracks the last value exactly.
	e1 := NewExpSmoothing(1)
	e1.Observe(2)
	e1.Observe(9)
	if e1.Predict() != 9 {
		t.Errorf("alpha=1 Predict = %v, want 9", e1.Predict())
	}
}

func TestTendencyExtrapolates(t *testing.T) {
	td := NewTendency(4)
	for _, v := range []float64{1, 2, 3, 4} {
		td.Observe(v)
	}
	if math.Abs(td.Predict()-5) > 1e-12 {
		t.Errorf("Predict = %v, want 5", td.Predict())
	}
	// Falling trend never predicts a non-positive time.
	td = NewTendency(4)
	td.Observe(4)
	td.Observe(0.1)
	if td.Predict() <= 0 {
		t.Errorf("tendency predicted non-positive %v", td.Predict())
	}
}

func TestInvalidConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"window0":   func() { NewHarmonicMean(0) },
		"alpha0":    func() { NewExpSmoothing(0) },
		"alpha2":    func() { NewExpSmoothing(2) },
		"tendency1": func() { NewTendency(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHarmonicIgnoresNonPositive(t *testing.T) {
	h := NewHarmonicMean(4)
	h.Observe(0)
	h.Observe(2)
	h.Observe(2)
	got := h.Predict()
	// Zero observations carry no rate information and are skipped in the
	// reciprocal sum; the prediction stays finite.
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Errorf("Predict = %v with zero observation", got)
	}
}
