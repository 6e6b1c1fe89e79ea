package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"sheriff/internal/sim"
)

// tinySeconds gives every tiny window the minimum step budget.
const tinySeconds = 0.01

// tiny shrinks a workload to a seconds-long run with the same trace
// family, threshold and deep setting, for the benchmark's self-tests.
func (w workload) tiny() workload {
	switch w.cfg.Kind {
	case sim.LeafSpine:
		w.cfg.Size = 16
	default:
		w.cfg.Size = 4
	}
	if w.deep {
		w.warmup = 50
	} else {
		w.warmup = 4
	}
	return w
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract reads the metric lists the benchmark promises in BENCHMARK.json.
func contract(t *testing.T) (endToEnd, perLayer []contractMetric) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []contractMetric `json:"end_to_end"`
		PerLayer []contractMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

func tinyRun(t *testing.T, w workload, seed int64, traced bool) *report {
	t.Helper()
	rep, err := bench(w.tiny(), config{seed: seed, seconds: tinySeconds, traced: traced})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkMetrics asserts the report carries exactly the promised metrics,
// each with its unit.
func checkMetrics(t *testing.T, rep *report, want []contractMetric) {
	t.Helper()
	got := map[string]string{}
	for _, m := range rep.Metrics {
		got[m.Name] = m.Unit
	}
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		if unit, ok := got[m.Name]; !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if unit != m.Unit {
			t.Errorf("metric %s unit %q, want %q", m.Name, unit, m.Unit)
		}
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep := tinyRun(t, w, 1, traced)
				if !rep.Correct || rep.Failed != 0 {
					t.Fatalf("traced=%v: not a clean run: failed %d, %v", traced, rep.Failed, rep.Failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				checkMetrics(t, rep, want)
				var out bytes.Buffer
				rep.print(&out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
					t.Errorf("result %+v", res)
				}
				for _, m := range want {
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("no printed line for %s", m.Name)
					}
				}
			}
		})
	}
}

func TestTailDropsFailTheRun(t *testing.T) {
	w := workloads[0]
	w.queueLimit = 1 // six VMs per rack shard: five of every six updates drop
	rep := tinyRun(t, w, 1, false)
	if rep.Correct {
		t.Fatal("a run that tail-dropped updates reported a clean result")
	}
	if got := rep.failedFrac(); got <= 0 {
		t.Fatalf("failed_frac = %v, want > 0", got)
	}
	if rep.Failed < rep.Attempted/2 {
		t.Errorf("failed %d of %d, want the dropped five sixths counted", rep.Failed, rep.Attempted)
	}
}

func TestDigestRepeatsPerSeed(t *testing.T) {
	w := workloads[1]
	a, b := tinyRun(t, w, 7, false), tinyRun(t, w, 7, false)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("seed 7 digests %q and %q, want equal", a.Digest, b.Digest)
	}
	if c := tinyRun(t, w, 8, false); c.Digest == a.Digest {
		t.Errorf("seeds 7 and 8 made identical decisions; the seed does not reach the profiles")
	}
}

func TestCorruptedDigestFailsDeterminism(t *testing.T) {
	rep := tinyRun(t, workloads[0], 1, false)
	if err := checkDigest("timed window", rep.Digest, rep.Digest); err != nil {
		t.Fatalf("identical digests rejected: %v", err)
	}
	corrupt := []byte(rep.Digest)
	corrupt[len(corrupt)-1] ^= 1
	if err := checkDigest("timed window", rep.Digest, string(corrupt)); err == nil {
		t.Fatal("a corrupted decision digest passed the determinism check")
	}
}

func TestClusterCheckCatchesOvercommit(t *testing.T) {
	d, _, err := setUp(workloads[0].tiny(), 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := checkCluster(d.rt.Cluster); err != nil {
		t.Fatalf("fresh cluster: %v", err)
	}
	for _, h := range d.rt.Cluster.Hosts() {
		if len(h.VMs()) > 0 {
			h.Capacity = 0
			break
		}
	}
	if err := checkCluster(d.rt.Cluster); err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("overcommitted host not reported: %v", err)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q, v := tail(xs)
	if q != 0.9 || v != 90 {
		t.Fatalf("tail of 1..100 = p%v %v, want p90 90", q*100, v)
	}
	if beyond := len(xs) - int(v); beyond != 10 {
		t.Errorf("%d samples beyond the tail, want 10", beyond)
	}
	if p := percentile(xs, q); p != v {
		t.Errorf("percentile(%v) = %v, want %v", q, p, v)
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "mesh"},
		{"-workload", "steady", "-trace", "2"},
		{"-workload", "steady", "-seconds", "0"},
	} {
		var out bytes.Buffer
		if code, err := run(args, &out); code != 2 || err == nil {
			t.Errorf("%v: exit %d, err %v; want 2 and an error", args, code, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %q", args, out.String())
		}
	}
}
