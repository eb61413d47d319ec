package vcluster

import (
	"fmt"
	"testing"

	"microslip/internal/balance"
)

func TestProbeFig3Curve(t *testing.T) {
	for _, duty := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		cfg := DefaultConfig(balance.NoRemap(), DutyCycleNode(20, 9, duty), 600)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("duty %.1f: %7.1f s", duty, res.TotalTime)
	}
}

func TestProbeFig10MultiSlow(t *testing.T) {
	for m := 0; m <= 5; m++ {
		slow := SpreadSlowNodes(20, m)
		line := ""
		for _, pol := range balance.All(4000) {
			cfg := DefaultConfig(pol, FixedSlowNodes(20, slow), 600)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			line += fmt.Sprintf("%s:%.1f  ", pol.Name, res.TotalTime)
		}
		t.Logf("m=%d slow%v  %s", m, slow, line)
	}
}

func TestProbeTable1Spikes(t *testing.T) {
	ded, _ := Run(DefaultConfig(balance.NoRemap(), Dedicated(20), 100))
	for _, spike := range []float64{1, 2, 3, 4} {
		line := ""
		for _, pol := range balance.All(4000) {
			traces := TransientSpikes(20, spike, 600, 42)
			cfg := DefaultConfig(pol, traces, 100)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			line += fmt.Sprintf("%s:%.1f%%  ", pol.Name, 100*(res.TotalTime-ded.TotalTime)/ded.TotalTime)
		}
		t.Logf("spike %.0fs  %s (dedicated %.1f s)", spike, line, ded.TotalTime)
	}
}

func TestProbeFig8Speedup(t *testing.T) {
	if testing.Short() {
		t.Skip("20k phases")
	}
	for m := 0; m <= 5; m++ {
		slow := SpreadSlowNodes(20, m)
		traces := FixedSlowNodes(20, slow)
		for _, pol := range []balance.Policy{balance.NoRemap(), balance.NewFiltered(4000)} {
			cfg := DefaultConfig(pol, traces, 20000)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("m=%d %-9s speedup %.2f  normEff %.2f", m, pol.Name, res.Speedup(),
				res.Speedup()/(20-0.7*float64(m)))
		}
	}
}
