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
	rec := tl.RecoveryPhase(0, 0.6)
	if rec < 0 {
		t.Fatal("remapping never recovered the phase time")
	}
	if rec > 80 {
		t.Errorf("recovery only at phase %d; expected within ~3 remap rounds", rec)
	}
	if tl.RecoveryPhase(0, 0.0001) != -1 {
		t.Error("impossible threshold reported a recovery phase")
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

func TestTracesFromCSV(t *testing.T) {
	csv := `node,start_s,end_s,speed
# a comment
3,0,5,0.5
3,10,12,0.25
0,1,2,0.9
`
	traces, err := TracesFromCSV(strings.NewReader(csv), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := traces[3].SpeedAt(2); got != 0.5 {
		t.Errorf("node 3 at t=2: %v", got)
	}
	if got := traces[3].SpeedAt(11); got != 0.25 {
		t.Errorf("node 3 at t=11: %v", got)
	}
	if got := traces[3].SpeedAt(7); got != 1 {
		t.Errorf("node 3 at t=7: %v", got)
	}
	if got := traces[0].SpeedAt(1.5); got != 0.9 {
		t.Errorf("node 0 at t=1.5: %v", got)
	}
	if got := traces[1].SpeedAt(0); got != 1 {
		t.Errorf("unlisted node not at full speed: %v", got)
	}
	// The loaded traces drive a simulation.
	cfg := DefaultConfig(balance.NoRemap(), traces, 20)
	if _, err := Run(cfg); err != nil {
		t.Errorf("playback run failed: %v", err)
	}
}

func TestTracesFromCSVErrors(t *testing.T) {
	cases := []string{
		"1,2,3",                // wrong field count
		"9,0,1,0.5",            // node out of range
		"x,0,1,0.5\n1,0,1,0.5", // bad node on a non-header line (line 1 numeric check)
		"1,zero,1,0.5",         // bad float
		"1,5,5,0.5",            // empty interval
		"1,0,1,1.5",            // bad speed
		"1,0,5,0.5\n1,3,6,0.5", // overlap
	}
	for _, c := range cases {
		if _, err := TracesFromCSV(strings.NewReader(c), 4); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}
