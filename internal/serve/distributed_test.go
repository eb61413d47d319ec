package serve

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"microslip/internal/lbm"
	"microslip/internal/parlbm"
)

// runQueued runs spec on s with every frame it streams: a blocker job
// holds the single worker while spec is queued and subscribed, so no
// frame is published before the subscription.
func runQueued(t *testing.T, s *Server, spec JobSpec) (JobStatus, []Frame) {
	t.Helper()
	blocker, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	frames, done, off, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer off()
	s.Cancel(blocker.ID)
	var got []Frame
	timeout := time.After(2 * time.Minute)
	for {
		select {
		case f := <-frames:
			if f.State == "" {
				got = append(got, f)
			}
		case <-done:
			for len(frames) > 0 {
				if f := <-frames; f.State == "" {
					got = append(got, f)
				}
			}
			fin, _ := s.getJob(st.ID)
			return fin.Status(), got
		case <-timeout:
			t.Fatalf("job %s did not finish", st.ID)
		}
	}
}

// A distributed job streams the global water mass — every rank's share
// summed — at the same steps as the sequential job on the same lattice,
// including the final one.
func TestDistributedFramesMatchSequential(t *testing.T) {
	s, _ := newTestServer(t, Config{Pool: 1, StreamEvery: 3})
	spec := JobSpec{Kind: KindWallForce, NX: 8, NY: 12, NZ: 6, Steps: 11}
	seq, want := runQueued(t, s, spec)
	spec.Kind, spec.Ranks = KindDistributed, 2
	dist, got := runQueued(t, s, spec)
	for _, st := range []JobStatus{seq, dist} {
		if st.State != StateDone {
			t.Fatalf("%s job state %s (%s)", st.Spec.Kind, st.State, st.Error)
		}
	}
	if len(want) != 4 || want[len(want)-1].Step != spec.Steps {
		t.Fatalf("sequential frames %+v, want steps 3, 6, 9, 11", want)
	}
	if len(got) != len(want) {
		t.Fatalf("distributed frames %+v, sequential %+v", got, want)
	}
	for i := range want {
		if got[i].Step != want[i].Step || math.Abs(got[i].MassWater-want[i].MassWater) > 1e-12*want[i].MassWater {
			t.Errorf("frame %d: distributed %+v, sequential %+v", i, got[i], want[i])
		}
	}
}

// A distributed job answers the paper's question: its center velocity
// and slip length come from the same mid-channel profile, computed by
// the same kernel function on the same bits, as the sequential job's —
// equal bit for bit on 2 and 3 ranks — and its mass is the sequential
// mass to 1e-12.
func TestDistributedResultMatchesSequential(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	spec := JobSpec{Kind: KindWallForce, NX: 12, NY: 24, NZ: 8, Steps: 10}
	seq := waitTerminal(t, ts, postJob(t, ts, spec, http.StatusAccepted).ID)
	if seq.State != StateDone || seq.Result.SlipLengthNM == 0 {
		t.Fatalf("sequential job %s, result %+v: no slip to compare", seq.State, seq.Result)
	}
	want := seq.Result
	for _, ranks := range []int{2, 3} {
		dspec := spec
		dspec.Kind, dspec.Ranks = KindDistributed, ranks
		fin := waitTerminal(t, ts, postJob(t, ts, dspec, http.StatusAccepted).ID)
		if fin.State != StateDone {
			t.Fatalf("%d ranks: state %s (%s)", ranks, fin.State, fin.Error)
		}
		got := fin.Result
		if math.Float64bits(got.CenterVelocity) != math.Float64bits(want.CenterVelocity) ||
			math.Float64bits(got.SlipLengthNM) != math.Float64bits(want.SlipLengthNM) {
			t.Errorf("%d ranks: center %v slip %v, sequential %v %v", ranks,
				got.CenterVelocity, got.SlipLengthNM, want.CenterVelocity, want.SlipLengthNM)
		}
		if math.Abs(got.MassWater-want.MassWater) > 1e-12*want.MassWater {
			t.Errorf("%d ranks: mass %.17g, sequential %.17g", ranks, got.MassWater, want.MassWater)
		}
	}
}

// A NaN in any rank's final mass fails the job, as CheckFinite fails a
// sequential one; finite shares sum in rank order.
func TestReduceRanksFailsOnNaN(t *testing.T) {
	p := lbm.WaterAir(8, 12, 6)
	ranks := []*parlbm.Result{
		{Rank: 0, Mass: []float64{1.5, 0.25}},
		{Rank: 1, Mass: []float64{2.5, 0.25}, Profile: make([]float64, p.NY)},
	}
	var res Result
	if err := reduceRanks(&res, p, ranks); err != nil || res.MassWater != 4 {
		t.Fatalf("finite ranks: mass %v, err %v", res.MassWater, err)
	}
	ranks[1].Mass[1] = math.NaN()
	err := reduceRanks(&Result{}, p, ranks)
	if err == nil || !strings.Contains(err.Error(), "NaN in component 1 on rank 1") {
		t.Fatalf("NaN rank: got %v", err)
	}
}
