package main

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// TestReplicationHealth checks the /healthz replication block folds the
// registry's standby gauges into JSON-friendly values: standby count
// and per-standby journal lag keyed by standby name.
func TestReplicationHealth(t *testing.T) {
	reg := obs.NewRegistry()
	got := replicationHealth(reg)
	if got["standbys_connected"] != 0 {
		t.Fatalf("empty registry standbys: %v", got["standbys_connected"])
	}
	if lag := got["lag_records"].(map[string]int64); len(lag) != 0 {
		t.Fatalf("empty registry lag: %v", lag)
	}

	reg.Gauge("parbmc_standbys_connected",
		"Standby coordinators currently attached to the replication stream.").Set(1)
	reg.Gauge("parbmc_replication_lag_records", "lag", "standby", "standby-b").Set(3)
	got = replicationHealth(reg)
	if got["standbys_connected"] != 1 {
		t.Fatalf("standbys: %v, want 1", got["standbys_connected"])
	}
	lag := got["lag_records"].(map[string]int64)
	if lag["standby-b"] != 3 {
		t.Fatalf("lag: %v, want standby-b=3", lag)
	}

	// The block must survive JSON encoding — it is embedded verbatim in
	// the /healthz response.
	data, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"standbys_connected":1`, `"standby-b":3`} {
		if !json.Valid(data) || !contains(string(data), want) {
			t.Fatalf("healthz JSON %s missing %s", data, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
