package runtime

import (
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/dcn"
)

// TestStepSteadyStateAllocs gates the sharded predict phase at zero heap
// allocations per step once warm: the per-rack alert buckets, the shard
// round-trip, and the Holt folds all reuse state. Thresholds are set so
// low that every VM alerts every step, keeping the bucket high-water
// marks constant across runs.
func TestStepSteadyStateAllocs(t *testing.T) {
	cluster, model := buildParts(t, 4)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: 9})
	tiny := alert.Thresholds{CPU: 1e-12, Mem: 1e-12, IO: 1e-12, TRF: 1e-12}
	r, err := New(cluster, model, Options{Seed: 9, Shards: 4, Thresholds: tiny})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Warm until every append capacity has reached its steady state.
	for i := 0; i < 10; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}

	var stats StepStats
	allocs := testing.AllocsPerRun(50, func() {
		stats = StepStats{}
		r.shardedPredictPhase(&stats, r.opts.Recorder, false)
	})
	if allocs != 0 {
		t.Fatalf("sharded predict phase allocates %.1f objects/step in steady state, want 0", allocs)
	}
	if stats.ServerAlerts == 0 {
		t.Fatal("gate ran without raising any alerts — thresholds did not bite")
	}
}

// TestFlowPlaneReadsZeroAlloc gates the per-step reads of the congestion
// phase and the step's closing workload metric at zero heap allocations:
// switch and uplink utilization walk the dense edge-ID load table, a rate
// change walks the flow's hop IDs, and the per-host sums walk each host's
// ID-ordered residents in place.
func TestFlowPlaneReadsZeroAlloc(t *testing.T) {
	cluster, model := buildParts(t, 4)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: 9})
	r, err := New(cluster, model, Options{Seed: 9, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	flows := r.Flows.Flows()
	if len(flows) == 0 {
		t.Fatal("no flows admitted; the gate would measure an idle plane")
	}
	f := flows[0]
	rates := [2]float64{f.Rate, f.Rate + 0.125}
	switches := r.Cluster.Graph.Switches()
	sum := 0.0
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		for _, sw := range switches {
			sum += r.Flows.SwitchUtilization(sw)
		}
		for _, rack := range r.Cluster.Racks {
			sum += r.Flows.OutUtilization(rack.NodeID)
		}
		k ^= 1
		if err := r.Flows.SetRate(f, rates[k]); err != nil {
			t.Fatal(err)
		}
		sum += r.Cluster.WorkloadStdDev()
	})
	if allocs != 0 {
		t.Fatalf("flow-plane reads allocate %.1f objects per pass, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("gate read only zeros")
	}
}
