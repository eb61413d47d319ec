package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (exclusive method) does, because the
// driver judges the benchmark's steadiness with that function.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile is the nearest-rank q-th percentile (0 < q <= 1).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// summary is one metric over the repetitions of a full run.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Samples []float64 `json:"samples"`
}

func summarize(d metricDef, samples []float64) summary {
	q1, q3 := quartiles(samples)
	s := summary{Unit: d.Unit, Better: d.Better, Bound: d.Bound, N: len(samples),
		Median: median(samples), Q1: q1, Q3: q3, Samples: samples}
	if len(samples) > 0 {
		s.Min = sorted(samples)[0]
	}
	return s
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// worsening is how much worse b's median is than a's, as a share of
// a's median (negative when b is better).
func worsening(a, b summary) float64 {
	d := (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		d = -d
	}
	return d
}

// classify compares two summaries of one (workload, metric) pair. The
// verdict rests only on the runs' own spread and the metric's bound,
// never on an absolute threshold: "unresolved" when either side's
// inter-quartile spread exceeds the bound (the runs cannot tell a
// regression of that size from noise), otherwise "worse"/"better" when
// the medians differ by more than the wider of the two inter-quartile
// distances, else "same".
func classify(old, cur summary) string {
	if old.spread() > old.Bound || cur.spread() > old.Bound {
		return "unresolved"
	}
	noise := math.Max(old.Q3-old.Q1, cur.Q3-cur.Q1) / math.Abs(old.Median)
	switch w := worsening(old, cur); {
	case w > noise:
		return "worse"
	case -w > noise:
		return "better"
	}
	return "same"
}

// fmtQ prints median [q1, q3].
func fmtQ(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}
