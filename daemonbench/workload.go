package main

import (
	"fmt"

	"sheriff/internal/sim"
	"sheriff/internal/traces"
)

// clusterSeed fixes topology population, dependency graph and the
// runtime's own seed. The benchmark's --seed drives only the trace
// generator, so the program under test receives nothing from the seed
// but the profiles it is offered.
const clusterSeed = 1

// traceSeed spreads the benchmark seed over the generator's seed space.
// The generators seed VM v's stream with Seed+v, so consecutive raw seeds
// would hand the same streams to neighbouring VMs.
func traceSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 2)
}

// workload is one fixed daemon scenario: cluster shape, trace family,
// alert threshold and the step budget of its warm-up and timed window.
type workload struct {
	name string
	cfg  sim.RuntimeConfig
	// traces is the family the offered profiles are drawn from, and surge
	// tunes it when it is traces.Surge.
	traces traces.Kind
	surge  traces.SurgeParams
	// threshold is applied to all four ALERT components.
	threshold float64
	deep      bool
	// warmup counts the untimed periods that follow the build, step 0
	// included; on storm it passes the deep pool's DeepFitAfter (48) so
	// the fit lands in set-up.
	warmup int
	// rate is the nominal timed periods per second of --seconds, about
	// the loop's speed on one core of the reference host. The
	// timed window is a fixed step budget derived from it, so every
	// commit times the same periods however fast it runs them.
	rate float64
	// queueLimit caps each ingest shard queue (0 = the ingest default).
	queueLimit int
}

// The workloads; README.md records the layer each one loads.
var workloads = []workload{
	{
		// A few alerts per step: manage runs a full all-racks cost refresh
		// to serve 0-2 racks, the demand-driven-refresh target.
		name: "steady",
		cfg: sim.RuntimeConfig{Kind: sim.FatTree, Size: 24, HostsPerRack: 2, VMsPerHost: 3,
			DependencyProb: 0.5, Seed: clusterSeed},
		traces:    traces.Diurnal,
		threshold: 0.9,
		warmup:    16,
		rate:      22,
	},
	{
		// About 20-30 alerts and 15 migrations per step: shims, flows and
		// the deep predictor pool are loaded, not just refresh.
		name: "storm",
		cfg: sim.RuntimeConfig{Kind: sim.FatTree, Size: 24, HostsPerRack: 2, VMsPerHost: 3,
			DependencyProb: 0.5, Seed: clusterSeed},
		traces: traces.Surge,
		// Rack bursts only, short and small: each timed window then holds
		// many episodes of about a dozen racks. The cluster-wide regimes
		// (train wave, flash crowd) push every rack over 0.6 for tens of
		// steps, so whether a window caught one decided its latency.
		surge:     traces.SurgeParams{MeanDwell: 8, BurstWeight: 1, RackFraction: 0.05},
		threshold: 0.6,
		deep:      true,
		warmup:    56,
		rate:      17,
	},
	{
		// Manage never runs: congestion, ingest and Host.Used carry the
		// step, and refresh is bypassed.
		name: "alertfree",
		cfg: sim.RuntimeConfig{Kind: sim.LeafSpine, Size: 1000, HostsPerRack: 2, VMsPerHost: 4,
			DependencyProb: 0.05, Seed: clusterSeed},
		traces:    traces.Lite,
		threshold: 2,
		warmup:    8,
		rate:      120,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want steady, storm or alertfree)", name)
}

// timedSteps is the fixed step budget of one timed window. The windows
// of a run — the replays of an end-to-end run, the untraced and traced
// windows of a traced one — share the run's --seconds between them.
func (w workload) timedSteps(seconds float64, traced bool) int {
	windows := float64(replays)
	if traced {
		windows = 2
	}
	return max(minTimedSteps, int(seconds*w.rate/windows+0.5))
}

// minTimedSteps keeps at least ten samples beyond the reported tail
// percentile even on the shortest run.
const minTimedSteps = 20
