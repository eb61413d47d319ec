package vcluster

import (
	"math"
	"strings"
	"testing"

	"microslip/internal/balance"
)

func TestTimelineRecording(t *testing.T) {
	cfg := DefaultConfig(balance.NewFiltered(4000), FixedSlowNodes(20, []int{10}), 120)
	cfg.RecordTimeline = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil || len(tl.PhaseEnd) != 120 {
		t.Fatalf("timeline missing or wrong length: %v", tl)
	}
	// Monotone non-decreasing ends; last entry equals the makespan.
	for i := 1; i < len(tl.PhaseEnd); i++ {
		if tl.PhaseEnd[i] < tl.PhaseEnd[i-1] {
			t.Fatalf("timeline not monotone at %d", i)
		}
	}
	if math.Abs(tl.PhaseEnd[len(tl.PhaseEnd)-1]-res.TotalTime) > 1e-9 {
		t.Errorf("last phase end %.3f != makespan %.3f", tl.PhaseEnd[len(tl.PhaseEnd)-1], res.TotalTime)
	}
	// Early phases run at the slow node's pace (~1.2 s); after the
	// filtered scheme drains it, phases drop toward the dedicated pace.
	d := tl.PhaseDurations()
	if d[5] < 1.0 {
		t.Errorf("phase 5 duration %.3f s; expected slow-node pace >= 1.0", d[5])
	}
	rec := -1
	for i, di := range d {
		if di <= 0.6 {
			rec = i
			break
		}
	}
	if rec < 0 {
		t.Fatal("remapping never recovered the phase time")
	}
	if rec > 80 {
		t.Errorf("recovery only at phase %d; expected within ~3 remap rounds", rec)
	}
}

func TestTimelineCSVAndPercentiles(t *testing.T) {
	tl := &Timeline{PhaseEnd: []float64{1, 2, 4, 5}}
	csv := tl.CSV()
	if !strings.HasPrefix(csv, "phase,end_s,duration_s\n") || strings.Count(csv, "\n") != 5 {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	// Durations 1,1,2,1.
	if got := tl.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := tl.Percentile(1); got != 2 {
		t.Errorf("p100 = %v", got)
	}
	if got := (&Timeline{}).Percentile(0.5); got != 0 {
		t.Errorf("empty timeline percentile = %v", got)
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	res, err := Run(DefaultConfig(balance.NoRemap(), Dedicated(4), 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Error("timeline recorded without RecordTimeline")
	}
}
