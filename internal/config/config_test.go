package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaults(t *testing.T) {
	e, err := Read(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Nodes != 20 || e.Phases != 600 || e.Policy != "filtered" ||
		e.TotalPlanes != 400 || e.PlanePoints != 4000 || e.Workload.Type != "dedicated" {
		t.Errorf("defaults wrong: %+v", e)
	}
	cfg, err := e.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("built config invalid: %v", err)
	}
}

func TestWorkloads(t *testing.T) {
	cases := []string{
		`{"workload":{"type":"fixed-slow","slow_nodes":[3,9]}}`,
		`{"workload":{"type":"fixed-slow","slow_count":2}}`,
		`{"workload":{"type":"duty-cycle","node":5,"duty":0.7}}`,
		`{"workload":{"type":"spikes","spike_seconds":2}}`,
	}
	for _, c := range cases {
		e, err := Read(strings.NewReader(c))
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		traces, err := e.BuildTraces()
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		if len(traces) != e.Nodes {
			t.Errorf("%s: %d traces for %d nodes", c, len(traces), e.Nodes)
		}
	}
}

func TestRejections(t *testing.T) {
	cases := []string{
		`{"policy":"bogus"}`,
		`{"workload":{"type":"weird"}}`,
		`{"workload":{"type":"duty-cycle","duty":1.5}}`,
		`{"workload":{"type":"spikes","spike_seconds":0}}`,
		`{"workload":{"type":"spikes","spike_seconds":99}}`,
		`{"unknown_field": 3}`,
		`{nonsense`,
		`{"nodes":3,"workload":{"type":"fixed-slow","slow_nodes":[99]}}`,
		`{"workload":{"type":"fixed-slow","slow_count":-2}}`,
		`{"nodes":4,"workload":{"type":"duty-cycle","node":7}}`,
		`{"nodes":99999}`,
		`{"total_planes":5,"nodes":20}`,
		`{"plane_points":-1}`,
		`{"recovery":{"checkpoint_interval":-1}}`,
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("%s: accepted", c)
		}
	}
}

// The schema has no fault-model knobs: a config that sets one must fail
// loudly with an unknown-field error rather than be silently ignored.
func TestRemovedFaultKnobsRejected(t *testing.T) {
	cases := []struct{ knob, json string }{
		{"resilience", `{"resilience": {"enabled": true, "max_retries": 5}}`},
		{"exchange_failure_rate", `{"exchange_failure_rate": 0.1}`},
		{"node_deaths", `{"node_deaths": [{"node": 2, "phase": 30}]}`},
		{"heartbeat_interval_ms", `{"recovery": {"heartbeat_interval_ms": 20}}`},
		{"heartbeat_dead_after_ms", `{"recovery": {"heartbeat_dead_after_ms": 400}}`},
		{"max_rank_failures", `{"recovery": {"max_rank_failures": 2}}`},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.json))
		if err == nil {
			t.Errorf("%s: accepted", c.knob)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "unknown field") || !strings.Contains(msg, c.knob) {
			t.Errorf("%s: error %q is not an unknown-field rejection of the knob", c.knob, msg)
		}
	}
}

// The recovery block carries only the checkpoint period, which reaches
// vcluster.Config and defaults to no checkpointing.
func TestRecoveryKnobs(t *testing.T) {
	e, err := Read(strings.NewReader(`{"recovery": {"checkpoint_interval": 50}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := e.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CheckpointInterval != 50 {
		t.Errorf("CheckpointInterval = %d, want 50", cfg.CheckpointInterval)
	}

	e, err = Read(strings.NewReader(`{"recovery": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = e.BuildConfig(); err != nil {
		t.Fatal(err)
	}
	if cfg.CheckpointInterval != 0 {
		t.Errorf("default CheckpointInterval = %d, want 0", cfg.CheckpointInterval)
	}
}

// A resilience block is refused even when empty and even alongside an
// otherwise valid config: no part of it is silently dropped.
func TestResilienceKnobs(t *testing.T) {
	for _, c := range []string{
		`{"resilience": {}}`,
		`{"phases": 40, "policy": "global", "resilience": {"enabled": false}}`,
	} {
		_, err := Read(strings.NewReader(c))
		if err == nil || !strings.Contains(err.Error(), "resilience") {
			t.Errorf("%s: err = %v, want an unknown-field rejection of resilience", c, err)
		}
	}
}

func TestReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(path, []byte(`{"phases": 42, "policy": "global"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Phases != 42 || e.Policy != "global" {
		t.Errorf("loaded %+v", e)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
