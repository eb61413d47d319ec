package config

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRead drives the JSON experiment parser with arbitrary bytes and
// enforces the package's central contract: Read either rejects the
// input with an error or returns an Experiment that is fully buildable
// — every Build* method succeeds, and the config round-trips through
// JSON back to an accepted experiment. Seed corpus lives under
// testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"nodes": 20, "phases": 600, "policy": "filtered"}`,
		`{"policy": "global", "workload": {"type": "fixed-slow", "slow_count": 4}}`,
		`{"policy": "conservative", "workload": {"type": "duty-cycle", "node": 3, "duty": 0.5}}`,
		`{"workload": {"type": "spikes", "spike_seconds": 2.5, "horizon_seconds": 1000}}`,
		`{"nodes": 8, "workload": {"type": "fixed-slow", "slow_nodes": [1, 5]}}`,
		`{"policy": "conservative", "phases": 30, "recovery": {"checkpoint_interval": 10}}`,
		`{"recovery": {"checkpoint_interval": -1}}`,
		// Knobs the schema no longer has: rejected as unknown fields.
		`{"resilience": {"enabled": true, "max_retries": 5}}`,
		`{"exchange_failure_rate": 0.1}`,
		`{"node_deaths": [{"node": 2, "phase": 30}]}`,
		`{"recovery": {"heartbeat_interval_ms": 20, "max_rank_failures": 2}}`,
		`{"nodes": -3}`,
		`{"policy": "nonsense"}`,
		`{"workload": {"type": "duty-cycle", "node": -1}}`,
		`{"workload": {"type": "fixed-slow", "slow_count": -2}}`,
		`not json at all`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing else to hold
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("accepted experiment fails Validate: %v", err)
		}
		if _, err := e.BuildPolicy(); err != nil {
			t.Fatalf("accepted experiment fails BuildPolicy: %v", err)
		}
		if _, err := e.BuildTraces(); err != nil {
			t.Fatalf("accepted experiment fails BuildTraces: %v", err)
		}
		if _, err := e.BuildConfig(); err != nil {
			t.Fatalf("accepted experiment fails BuildConfig: %v", err)
		}
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("accepted experiment fails to marshal: %v", err)
		}
		again, err := Read(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round-tripped experiment rejected: %v\njson: %s", err, out)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("round trip changed the experiment:\n got %+v\nwant %+v", again, e)
		}
	})
}
