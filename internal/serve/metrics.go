package serve

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyStat is one stage's latency distribution: count, sum, max,
// and a log2-bucketed histogram (microsecond granularity) from which
// quantiles are estimated. All methods are safe for concurrent use;
// Observe is lock-free.
type LatencyStat struct {
	count atomic.Int64
	sumNS atomic.Int64
	maxNS atomic.Int64
	// buckets[i] counts observations in [2^i, 2^(i+1)) microseconds;
	// bucket 0 also absorbs sub-microsecond samples.
	buckets [40]atomic.Int64
}

// Observe records one latency sample.
func (s *LatencyStat) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.count.Add(1)
	s.sumNS.Add(int64(d))
	for {
		cur := s.maxNS.Load()
		if int64(d) <= cur || s.maxNS.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	us := uint64(d / time.Microsecond)
	b := 0
	if us > 0 {
		b = bits.Len64(us) - 1
	}
	if b >= len(s.buckets) {
		b = len(s.buckets) - 1
	}
	s.buckets[b].Add(1)
}

// LatencySnapshot is the JSON form of one stage's distribution. The
// quantiles are histogram upper bounds, so they overestimate by at
// most 2x at microsecond-log2 resolution — honest enough for a p99
// trend line, cheap enough for the submit hot path.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Snapshot renders the distribution.
func (s *LatencyStat) Snapshot() LatencySnapshot {
	n := s.count.Load()
	snap := LatencySnapshot{Count: n}
	if n == 0 {
		return snap
	}
	snap.MeanMS = float64(s.sumNS.Load()) / float64(n) / 1e6
	snap.MaxMS = float64(s.maxNS.Load()) / 1e6
	snap.P50MS = s.quantile(n, 0.50)
	snap.P95MS = s.quantile(n, 0.95)
	snap.P99MS = s.quantile(n, 0.99)
	return snap
}

// quantile returns the upper bound (ms) of the histogram bucket holding
// the q-th sample.
func (s *LatencyStat) quantile(n int64, q float64) float64 {
	target := int64(q * float64(n))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range s.buckets {
		cum += s.buckets[i].Load()
		if cum >= target {
			upperUS := float64(int64(1) << (i + 1))
			return upperUS / 1e3
		}
	}
	return float64(s.maxNS.Load()) / 1e6
}

// Metrics aggregates the server's counters: job states, rejection
// counts, and the per-stage latency distributions the /metrics endpoint
// exposes.
type Metrics struct {
	start time.Time

	Submitted atomic.Int64
	Rejected  atomic.Int64 // validation failures (4xx)
	Refused   atomic.Int64 // queue full / draining (503)

	mu     sync.Mutex
	states map[State]int64

	QueueWait LatencyStat // submit accept → worker pickup
	Schedule  LatencyStat // worker pickup → solver built
	Compute   LatencyStat // solver built → run finished
	Persist   LatencyStat // run finished → results/checkpoints durable
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), states: map[State]int64{}}
}

// CountState moves a job between lifecycle-state counters; pass "" for
// from on first entry.
func (m *Metrics) CountState(from, to State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from != "" {
		m.states[from]--
	}
	m.states[to]++
}

// MetricsSnapshot is the /metrics JSON document.
type MetricsSnapshot struct {
	UptimeMS  int64                      `json:"uptime_ms"`
	Submitted int64                      `json:"submitted_total"`
	Rejected  int64                      `json:"rejected_total"`
	Refused   int64                      `json:"refused_total"`
	States    map[State]int64            `json:"jobs"`
	Stages    map[string]LatencySnapshot `json:"stages"`
}

// Snapshot renders all counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	states := make(map[State]int64, len(m.states))
	for k, v := range m.states {
		states[k] = v
	}
	m.mu.Unlock()
	return MetricsSnapshot{
		UptimeMS:  time.Since(m.start).Milliseconds(),
		Submitted: m.Submitted.Load(),
		Rejected:  m.Rejected.Load(),
		Refused:   m.Refused.Load(),
		States:    states,
		Stages: map[string]LatencySnapshot{
			"queue_wait": m.QueueWait.Snapshot(),
			"schedule":   m.Schedule.Snapshot(),
			"compute":    m.Compute.Snapshot(),
			"persist":    m.Persist.Snapshot(),
		},
	}
}
