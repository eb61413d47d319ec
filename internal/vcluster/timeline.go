package vcluster

import (
	"fmt"
	"sort"
	"strings"
)

// Timeline records the per-phase cluster makespan of a run: entry i is
// the virtual time at which phase i completed on the slowest node.
// Enabled via Config.RecordTimeline; useful for plotting how a
// disturbance propagates (the ripple of Section 3.1) and when a
// remapping scheme recovers.
type Timeline struct {
	// PhaseEnd[i] is the completion time of phase i (max over nodes).
	PhaseEnd []float64
}

// PhaseDurations returns the per-phase makespan increments.
func (tl *Timeline) PhaseDurations() []float64 {
	out := make([]float64, len(tl.PhaseEnd))
	prev := 0.0
	for i, t := range tl.PhaseEnd {
		out[i] = t - prev
		prev = t
	}
	return out
}

// CSV renders the timeline as phase,end,duration rows.
func (tl *Timeline) CSV() string {
	var sb strings.Builder
	sb.WriteString("phase,end_s,duration_s\n")
	prev := 0.0
	for i, t := range tl.PhaseEnd {
		fmt.Fprintf(&sb, "%d,%.6f,%.6f\n", i, t, t-prev)
		prev = t
	}
	return sb.String()
}

// Percentile returns the p-quantile (0..1) of phase durations.
func (tl *Timeline) Percentile(p float64) float64 {
	d := tl.PhaseDurations()
	if len(d) == 0 {
		return 0
	}
	sort.Float64s(d)
	if p <= 0 {
		return d[0]
	}
	if p >= 1 {
		return d[len(d)-1]
	}
	idx := int(p * float64(len(d)-1))
	return d[idx]
}
