package balance

import "fmt"

// Predictor forecasts the next phase's execution time on a node from
// the times observed so far. Predict returns 0 until the first
// observation. HarmonicMean is the paper's (Section 3.4); the others
// serve the predictor ablation.
type Predictor interface {
	Observe(t float64)
	Predict() float64
}

// ring is a fixed-size window of the most recent observations.
type ring struct {
	buf  []float64
	n    int // valid entries
	next int // ring head
}

func newRing(k int) *ring {
	if k < 1 {
		panic(fmt.Sprintf("balance: window size %d", k))
	}
	return &ring{buf: make([]float64, k)}
}

// push appends v, returning the evicted observation and whether one
// was evicted (the ring was full), so predictors can maintain O(1)
// incremental accumulators.
func (w *ring) push(v float64) (evicted float64, wasFull bool) {
	evicted, wasFull = w.buf[w.next], w.n == len(w.buf)
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	return evicted, wasFull
}

// wrapped reports whether the ring head just returned to slot 0 — a
// natural point for accumulator-based predictors to re-sum exactly,
// which bounds floating-point drift to one window's worth of updates.
func (w *ring) wrapped() bool { return w.next == 0 }

// first returns the oldest valid entry.
func (w *ring) first() float64 {
	return w.buf[(w.next-w.n+len(w.buf))%len(w.buf)]
}

// last returns the most recent entry.
func (w *ring) last() float64 {
	return w.buf[(w.next-1+len(w.buf))%len(w.buf)]
}

// HarmonicMean is the paper's predictor: K / sum(1/t_i) over the last K
// phases. Because the reciprocal of a large spike is tiny, one slow
// phase among K fast ones barely raises the prediction, so no migration
// is triggered "unless this machine is really slow for the last K
// phases" (the paper uses K = 10).
// Observe and Predict are both O(1): the reciprocal sum is maintained
// incrementally as the ring evicts and admits observations (Predict is
// called once per plane-owning rank inside every remap round, so the
// old O(K)-with-allocation evaluation sat on the remap hot path). The
// sum is re-accumulated exactly from the ring each time the head
// wraps, which bounds floating-point drift to one window of updates.
type HarmonicMean struct {
	w   *ring
	inv float64 // sum of 1/t over the window's positive entries
}

// NewHarmonicMean creates the predictor with window K.
func NewHarmonicMean(k int) *HarmonicMean { return &HarmonicMean{w: newRing(k)} }

func (h *HarmonicMean) Observe(t float64) {
	evicted, wasFull := h.w.push(t)
	if h.w.wrapped() {
		h.inv = 0
		for _, v := range h.w.buf[:h.w.n] {
			if v > 0 {
				h.inv += 1 / v
			}
		}
		return
	}
	if wasFull && evicted > 0 {
		h.inv -= 1 / evicted
	}
	if t > 0 {
		h.inv += 1 / t
	}
}

func (h *HarmonicMean) Predict() float64 {
	if h.w.n == 0 || h.inv <= 0 {
		return 0
	}
	return float64(h.w.n) / h.inv
}

// LastValue predicts the most recent observation; the literature's
// "future load is closest to the most recent data" model, prone to
// migration oscillation under rapidly changing sharing patterns.
type LastValue struct{ last float64 }

// NewLastValue creates the predictor.
func NewLastValue() *LastValue { return &LastValue{} }

func (l *LastValue) Observe(t float64) { l.last = t }
func (l *LastValue) Predict() float64  { return l.last }

// ArithmeticMean averages the last K observations. Like HarmonicMean,
// the sum is maintained incrementally (O(1) Observe and Predict) and
// re-accumulated exactly at every ring wrap to bound drift.
type ArithmeticMean struct {
	w   *ring
	sum float64
}

// NewArithmeticMean creates the predictor with window K.
func NewArithmeticMean(k int) *ArithmeticMean { return &ArithmeticMean{w: newRing(k)} }

func (a *ArithmeticMean) Observe(t float64) {
	evicted, wasFull := a.w.push(t)
	if a.w.wrapped() {
		a.sum = 0
		for _, v := range a.w.buf[:a.w.n] {
			a.sum += v
		}
		return
	}
	if wasFull {
		a.sum -= evicted
	}
	a.sum += t
}

func (a *ArithmeticMean) Predict() float64 {
	if a.w.n == 0 {
		return 0
	}
	return a.sum / float64(a.w.n)
}

// ExpSmoothing is exponentially weighted smoothing with factor alpha in
// (0, 1]: higher alpha weights recent data more (the tendency of [46]
// to emphasize fresh samples).
type ExpSmoothing struct {
	alpha float64
	val   float64
	seen  bool
}

// NewExpSmoothing creates the predictor.
func NewExpSmoothing(alpha float64) *ExpSmoothing {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("balance: alpha %v out of (0,1]", alpha))
	}
	return &ExpSmoothing{alpha: alpha}
}

func (e *ExpSmoothing) Observe(t float64) {
	if !e.seen {
		e.val, e.seen = t, true
		return
	}
	e.val = e.alpha*t + (1-e.alpha)*e.val
}

func (e *ExpSmoothing) Predict() float64 {
	if !e.seen {
		return 0
	}
	return e.val
}

// Tendency extrapolates the recent trend: last value plus the mean
// increment over the window (a homeostatic/tendency-based model in the
// spirit of Yang, Foster and Schopf). Predictions are clamped to be
// positive.
type Tendency struct{ w *ring }

// NewTendency creates the predictor with window K.
func NewTendency(k int) *Tendency {
	if k < 2 {
		panic("balance: tendency window must be >= 2")
	}
	return &Tendency{w: newRing(k)}
}

func (td *Tendency) Observe(t float64) { td.w.push(t) }

// Predict is O(1): the trend only needs the window's oldest and newest
// entries, both direct ring reads.
func (td *Tendency) Predict() float64 {
	if td.w.n == 0 {
		return 0
	}
	last := td.w.last()
	if td.w.n == 1 {
		return last
	}
	incr := (last - td.w.first()) / float64(td.w.n-1)
	p := last + incr
	if p <= 0 {
		p = last
	}
	return p
}
