package balance

import (
	"math"
	"math/rand"
	"testing"
)

// Slice-based reference implementations, the pre-incremental O(K)
// forms the ring-local accumulators must stay equivalent to.

// values returns the ring's valid entries, oldest first.
func (w *ring) values() []float64 {
	out := make([]float64, 0, w.n)
	start := (w.next - w.n + len(w.buf)) % len(w.buf)
	for i := 0; i < w.n; i++ {
		out = append(out, w.buf[(start+i)%len(w.buf)])
	}
	return out
}

func refHarmonic(w *ring) float64 {
	if w.n == 0 {
		return 0
	}
	var inv float64
	for _, t := range w.values() {
		if t <= 0 {
			continue
		}
		inv += 1 / t
	}
	if inv == 0 {
		return 0
	}
	return float64(w.n) / inv
}

func refMean(w *ring) float64 {
	if w.n == 0 {
		return 0
	}
	var s float64
	for _, t := range w.values() {
		s += t
	}
	return s / float64(w.n)
}

func refTendency(w *ring) float64 {
	vs := w.values()
	if len(vs) == 0 {
		return 0
	}
	last := vs[len(vs)-1]
	if len(vs) == 1 {
		return last
	}
	incr := (vs[len(vs)-1] - vs[0]) / float64(len(vs)-1)
	p := last + incr
	if p <= 0 {
		p = last
	}
	return p
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// Random observation streams — including zero and negative phase times
// (the reference skips nonpositive reciprocals), long runs that wrap
// the ring many times, and interleaved restarts — must leave the
// incremental predictors equivalent to the slice-based reference at
// every step.
func TestIncrementalMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12)
		h := NewHarmonicMean(k)
		a := NewArithmeticMean(k)
		td := NewTendency(k + 1) // Tendency requires K >= 2
		n := 200 + rng.Intn(200)
		for i := 0; i < n; i++ {
			var v float64
			switch rng.Intn(10) {
			case 0:
				v = 0
			case 1:
				v = -rng.Float64()
			default:
				v = math.Ldexp(rng.Float64()+1e-3, rng.Intn(20)-10)
			}
			if rng.Intn(97) == 0 {
				h, a, td = NewHarmonicMean(k), NewArithmeticMean(k), NewTendency(k+1)
			}
			h.Observe(v)
			a.Observe(v)
			td.Observe(v)
			if got, want := h.Predict(), refHarmonic(h.w); !closeEnough(got, want) {
				t.Fatalf("trial %d step %d: harmonic %v, reference %v", trial, i, got, want)
			}
			if got, want := a.Predict(), refMean(a.w); !closeEnough(got, want) {
				t.Fatalf("trial %d step %d: mean %v, reference %v", trial, i, got, want)
			}
			if got, want := td.Predict(), refTendency(td.w); got != want {
				t.Fatalf("trial %d step %d: tendency %v, reference %v", trial, i, got, want)
			}
		}
	}
}

// Observe and Predict sit inside the per-phase remap loop of every
// rank; neither may allocate.
func TestPredictorsZeroAllocs(t *testing.T) {
	preds := []Predictor{
		NewHarmonicMean(10),
		NewArithmeticMean(10),
		NewTendency(10),
		NewLastValue(),
		NewExpSmoothing(0.5),
	}
	for _, p := range preds {
		for i := 0; i < 25; i++ {
			p.Observe(0.1 + float64(i))
		}
		v := 0.7
		if allocs := testing.AllocsPerRun(20, func() {
			p.Observe(v)
			_ = p.Predict()
			v += 0.01
		}); allocs != 0 {
			t.Errorf("%T: %v allocs per Observe+Predict, want 0", p, allocs)
		}
	}
}
