package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"sheriff/internal/obs"
	"sheriff/internal/runtime"
)

// replays is how many times an end-to-end run sets the daemon up and
// times its window; setup_s and each period's latency are medians over
// them.
const replays = 3

// interleave is the block length, in periods, in which a traced run
// alternates its untraced and traced daemons.
const interleave = 20

type config struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string // "" writes no record
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance is recorded with every result.
type provenance struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HostCores   int     `json:"host_cores"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Shards      int     `json:"shards"`
	VMs         int     `json:"vms"`
	Racks       int     `json:"racks"`
	WarmupSteps int     `json:"warmup_steps"`
	TimedSteps  int     `json:"timed_steps"`
	Setups      int     `json:"setups"`
	TailPct     float64 `json:"step_tail_percentile"`
	Traced      bool    `json:"traced"`
	// StealFrac is the share of CPU time the hypervisor took from this
	// host during the run (/proc/stat), the main source of run-to-run
	// spread on shared hosts.
	StealFrac float64 `json:"host_steal_frac"`
}

// report is one run's outcome. Attempted counts the updates offered in
// timed windows; Failed those dropped at ingest or refused by
// StepExternal, plus one per failed output check.
type report struct {
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Failures   []string   `json:"failures,omitempty"`
	Checks     []string   `json:"checks"`
	Metrics    []metric   `json:"metrics"`
	Digest     string     `json:"decision_digest"`
	// Alerts (server + ToR, the ones manage serves) and Migrations per
	// timed step, so a claim can be re-checked on another seed.
	Alerts     []int  `json:"alerts_per_step"`
	Migrations []int  `json:"migrations_per_step"`
	Record     string `json:"-"`
}

func (r *report) failedFrac() float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) }

func (r *report) fail(err error) {
	r.Failures = append(r.Failures, err.Error())
	r.Failed++
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

// window is what one timed window measured.
type window struct {
	latMS      []float64
	updates    int
	failed     int
	allocs     uint64 // whole-process heap objects over the window
	digest     digest
	stats      runtime.StepStats // field sums; MigrationCost and WorkloadStdDev too
	prealerts  int
	alerts     []int
	migrations []int
	elapsed    time.Duration // Σ period latency
}

// setUp builds the daemon and runs its warm-up periods, returning the
// warm-up decision digest. With t non-nil the build, step 0 and the
// remaining warm-up are traced as setup spans.
func setUp(w workload, seed int64, shards int, rec *obs.Recorder, t *tracer) (*daemon, string, error) {
	open := func(name string) int {
		if t == nil {
			return 0
		}
		t.period = -1
		return t.open(name)
	}
	closeSpan := func(id int) {
		if t != nil {
			t.close(id)
		}
	}
	id := open(spanBuild)
	d, err := build(w, seed, shards, rec)
	if err != nil {
		return nil, "", err
	}
	closeSpan(id)
	dg := newDigest()
	for k := 0; k < w.warmup; k++ {
		switch k {
		case 0:
			id = open(spanFirstStep)
		case 1:
			closeSpan(id)
			id = open(spanWarmup)
		}
		p, err := d.step()
		if err != nil {
			d.close()
			return nil, "", fmt.Errorf("warm-up step %d: %w", k, err)
		}
		dg.add(p.stats)
	}
	closeSpan(id)
	return d, dg.sum(), nil
}

func newWindow(n int) *window {
	return &window{digest: newDigest(), latMS: make([]float64, 0, n)}
}

// timed runs n more measured periods into win. With t non-nil they are
// traced.
func (d *daemon) timed(win *window, n int, t *tracer, rec *obs.Recorder, c *layerCounts) error {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	a0 := ms.Mallocs
	for k := 0; k < n; k++ {
		var p period
		var err error
		if t != nil {
			p, err = d.tracedStep(t, rec, c)
		} else {
			p, err = d.step()
		}
		win.updates += len(d.updates)
		if err != nil {
			// A refused batch or a broken conservation check loses the
			// whole period's updates.
			win.failed += len(d.updates)
			return err
		}
		s := p.stats
		win.failed += p.dropped
		win.latMS = append(win.latMS, float64(p.latency)/float64(time.Millisecond))
		win.elapsed += p.latency
		win.prealerts += p.prealerts
		win.digest.add(s)
		win.alerts = append(win.alerts, s.ServerAlerts+s.ToRAlerts)
		win.migrations = append(win.migrations, s.Migrations)
		sum := &win.stats
		sum.ServerAlerts += s.ServerAlerts
		sum.ToRAlerts += s.ToRAlerts
		sum.SwitchAlerts += s.SwitchAlerts
		sum.Migrations += s.Migrations
		sum.MigrationCost += s.MigrationCost
		sum.Preemptions += s.Preemptions
		sum.Requeued += s.Requeued
		sum.Reroutes += s.Reroutes
		sum.HotSwitches += s.HotSwitches
		sum.DeepWarnings += s.DeepWarnings
		sum.WorkloadStdDev += s.WorkloadStdDev
	}
	goruntime.ReadMemStats(&ms)
	win.allocs += ms.Mallocs - a0
	return nil
}

// bench runs one workload and returns its report. Failed output checks
// are reported in it; an error means the run could not be made at all.
func bench(w workload, cfg config) (*report, error) {
	n := w.timedSteps(cfg.seconds, cfg.traced)
	shards := goruntime.GOMAXPROCS(0)
	rep := &report{Provenance: provenance{
		Workload: w.name, Seed: cfg.seed, HostCores: goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(), Commit: commit(),
		Shards: shards, WarmupSteps: w.warmup, TimedSteps: n, Traced: cfg.traced,
	}}
	steal0, total0 := cpuTicks()
	if cfg.traced {
		benchTraced(w, cfg, n, shards, rep)
	} else {
		benchEndToEnd(w, cfg, n, shards, rep)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rep.Provenance.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	for _, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail(fmt.Errorf("metric %s is %v", m.Name, m.Value))
		}
	}
	rep.Correct = len(rep.Failures) == 0 && rep.Failed == 0
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, btoi(cfg.traced)))
		blob, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			return nil, err
		}
		rep.Record = path
	}
	return rep, nil
}

// benchEndToEnd replays the workload `replays` times in one process:
// each replay sets up a fresh daemon and runs the same timed window, so
// every period does identical work in each. A period's latency is its
// median over the replays, which filters host noise (CPU steal,
// co-tenants, a GC cycle) that hits one replay but not the others.
// Decisions must be identical across replays.
func benchEndToEnd(w workload, cfg config, n, shards int, rep *report) {
	rep.Provenance.Setups = replays
	var setupS []float64
	lat := make([][]float64, n) // per period, one latency per replay
	var allocs []float64
	var warm string
	var win *window
	for i := 0; i < replays; i++ {
		goruntime.GC()
		start := time.Now()
		d, dg, err := setUp(w, cfg.seed, shards, nil, nil)
		if err != nil {
			rep.Attempted = max(rep.Attempted, 1)
			rep.fail(fmt.Errorf("replay %d setup: %w", i, err))
			return
		}
		setupS = append(setupS, time.Since(start).Seconds())
		goruntime.GC()
		win = newWindow(n)
		err = d.timed(win, n, nil, nil, nil)
		rep.Attempted += win.updates
		rep.Failed += win.failed
		if err != nil {
			d.close()
			rep.fail(fmt.Errorf("replay %d: %w", i, err))
			return
		}
		if i == 0 {
			warm = dg
			rep.Digest = win.digest.sum()
		} else {
			if err := checkDigest("warm-up", warm, dg); err != nil {
				rep.fail(err)
			}
			if err := checkDigest("timed window", rep.Digest, win.digest.sum()); err != nil {
				rep.fail(err)
			}
		}
		for k, v := range win.latMS {
			lat[k] = append(lat[k], v)
		}
		allocs = append(allocs, float64(win.allocs)/float64(n))
		if i == replays-1 {
			finish(d, win, rep)
		}
		d.close()
	}
	rep.Checks = append(rep.Checks, fmt.Sprintf("decisions identical across %d replays (warm-up %s, timed %s)", replays, warm, rep.Digest))

	perPeriod := make([]float64, n)
	total := 0.0
	for k, xs := range lat {
		perPeriod[k] = percentile(sortedCopy(xs), 0.5)
		total += perPeriod[k]
	}
	sorted := sortedCopy(perPeriod)
	q, tailMS := tail(sorted)
	rep.Provenance.TailPct = math.Round(q*1e4) / 100
	rep.add("updates_per_s", float64(win.updates-win.failed)/(total/1e3), "updates/s")
	rep.add("step_p50_ms", percentile(sorted, 0.5), "ms")
	rep.add("step_tail_ms", tailMS, "ms")
	rep.add("setup_s", percentile(sortedCopy(setupS), 0.5), "s")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.add("allocs_per_step", percentile(sortedCopy(allocs), 0.5), "count")
	rep.add("workload_stddev", win.stats.WorkloadStdDev/float64(n), "%")
}

// finish runs the end-of-window checks and records the decisions.
func finish(d *daemon, win *window, rep *report) {
	if err := checkCluster(d.rt.Cluster); err != nil {
		rep.fail(err)
	} else {
		rep.Checks = append(rep.Checks, "cluster invariants hold: one host per VM, listed by it, none over capacity")
	}
	if win.failed == 0 {
		rep.Checks = append(rep.Checks, fmt.Sprintf("ingest conserved after every drain (%d updates, none dropped)", win.updates))
	}
	rep.Digest = win.digest.sum()
	rep.Alerts, rep.Migrations = win.alerts, win.migrations
	rep.Provenance.VMs = len(d.updates)
	rep.Provenance.Racks = len(d.rt.Cluster.Racks)
}

// benchTraced sets up an untraced daemon and one with the tracer
// attached, then times the same window on both, alternating blocks of
// interleave periods so host drift hits both alike. The per-layer
// metrics come from the traced daemon; trace.overhead_frac compares the
// two. Both must decide identically.
func benchTraced(w workload, cfg config, n, shards int, rep *report) {
	rep.Provenance.Setups = 2
	rep.Attempted = 1 // until a window runs
	u, _, err := setUp(w, cfg.seed, shards, nil, nil)
	if err != nil {
		rep.fail(fmt.Errorf("untraced setup: %w", err))
		return
	}
	defer u.close()
	t := newTracer()
	rec, err := obs.New(obs.Options{Ring: 1, Sinks: []obs.Sink{t}})
	if err != nil {
		rep.fail(err)
		return
	}
	goruntime.GC()
	d, _, err := setUp(w, cfg.seed, shards, rec, t)
	if err != nil {
		rep.fail(fmt.Errorf("traced setup: %w", err))
		return
	}
	defer d.close()

	skew0 := skews(d.rt)
	dropped0 := d.svc.Stats().Dropped
	c := &layerCounts{}
	base, win := newWindow(n), newWindow(n)
	goruntime.GC()
	for done := 0; done < n && err == nil; done += interleave {
		k := min(interleave, n-done)
		if err = u.timed(base, k, nil, nil, nil); err == nil {
			err = d.timed(win, k, t, rec, c)
		}
	}
	rep.Attempted, rep.Failed = base.updates+win.updates, base.failed+win.failed
	if err != nil {
		rep.fail(err)
		return
	}
	finish(d, win, rep)
	if err := checkDigest("traced vs untraced", base.digest.sum(), win.digest.sum()); err != nil {
		rep.fail(err)
	} else {
		rep.Checks = append(rep.Checks, "traced and untraced windows made identical decisions (digest "+rep.Digest+")")
	}
	if err := rec.Err(); err != nil {
		rep.fail(err)
	}

	sp := reduceSpans(t.spans, n)
	fn := float64(n)
	perStep := func(v int) float64 { return float64(v) / fn }
	st := win.stats
	alerts := st.ServerAlerts + st.ToRAlerts
	perAlert := 0.0
	if alerts > 0 {
		perAlert = float64(st.Migrations) / float64(alerts)
	}
	skew1 := skews(d.rt)
	ist := d.svc.Stats()
	ups := func(x *window) float64 { return float64(x.updates) / x.elapsed.Seconds() }

	rep.add("cost.refresh_ms", sp.refreshMS, "ms")
	rep.add("migrate.shim_ms", sp.meanMS[spanShim], "ms")
	rep.add("migrate.active_shims", sp.activeShims, "count/step")
	rep.add("migrate.migrations", perStep(st.Migrations), "count/step")
	rep.add("migrate.requests", float64(c.requests)/fn, "count/step")
	rep.add("migrate.rejects", float64(c.rejects)/fn, "count/step")
	rep.add("migrate.preemptions", perStep(st.Preemptions), "count/step")
	rep.add("migrate.requeued", perStep(st.Requeued), "count/step")
	rep.add("migrate.migrations_per_alert", perAlert, "ratio")
	rep.add("migrate.cost", st.MigrationCost/fn, "cost/step")
	rep.add("runtime.step_ms", sp.stepMS, "ms")
	for _, ph := range []string{"predict", "flows", "congestion", "manage"} {
		rep.add(phaseSpan[ph]+"_ms", sp.meanMS[phaseSpan[ph]], "ms")
	}
	rep.add("runtime.unphased_ms", sp.unphasedMS, "ms")
	for _, ph := range []string{"predict", "flows", "congestion"} {
		rep.add("runtime."+ph+"_skew", windowMean(skew0[ph], skew1[ph]), "ratio")
	}
	rep.add("runtime.allocs_per_step", float64(c.stepAllocs)/fn, "count")
	rep.add("ingest.allocs_per_update", float64(c.ingestAllocs)/float64(win.updates), "count")
	rep.add("ingest.offer_ms", sp.meanMS[spanOffer], "ms")
	rep.add("ingest.triage_ms", sp.meanMS[spanTriage], "ms")
	rep.add("ingest.poll_ms", sp.meanMS[spanPoll], "ms")
	rep.add("ingest.wait_p99_us", ist.LatencyP99*1e6, "us")
	rep.add("ingest.prealerts", perStep(win.prealerts), "count/step")
	rep.add("ingest.dropped", float64(ist.Dropped-dropped0), "count")
	rep.add("alert.server", perStep(st.ServerAlerts), "count/step")
	rep.add("alert.tor", perStep(st.ToRAlerts), "count/step")
	rep.add("alert.switch", perStep(st.SwitchAlerts), "count/step")
	rep.add("runtime.deep_warnings", perStep(st.DeepWarnings), "count/step")
	rep.add("flow.reroutes", perStep(st.Reroutes), "count/step")
	rep.add("flow.hot_switches", perStep(st.HotSwitches), "count/step")
	setupDur := map[string]float64{}
	for _, s := range t.spans {
		if s.Period == -1 {
			setupDur[s.Name] += s.dur().Seconds()
		}
	}
	rep.add("setup.build_s", setupDur[spanBuild], "s")
	rep.add("setup.first_step_s", setupDur[spanFirstStep], "s")
	rep.add("setup.warmup_s", setupDur[spanWarmup], "s")
	rep.add("traces.next_ms", sp.meanMS[spanNext], "ms")
	rep.add("trace.overhead_frac", 1-ups(win)/ups(base), "ratio")

	rep.Checks = append(rep.Checks, layerCheck(w, sp))
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, cfg.seed))
		if err := writeSpans(path, t.spans); err != nil {
			rep.fail(err)
		}
	}
}

// layerCheck records whether the workload loads the layer it was chosen
// for, with the measured split either way.
func layerCheck(w workload, sp spanStats) string {
	share := func(v float64) float64 { return v / sp.stepMS }
	switch w.name {
	case "steady", "storm":
		return fmt.Sprintf("layer split: cost refresh %.3f ms = %.0f%% of runtime.step %.3f ms (majority: %v); shims %.3f ms",
			sp.refreshMS, 100*share(sp.refreshMS), sp.stepMS, share(sp.refreshMS) > 0.5, sp.meanMS[spanShim])
	default:
		m := sp.meanMS[phaseSpan["manage"]]
		return fmt.Sprintf("layer split: runtime.manage %.4f ms = %.2f%% of runtime.step %.3f ms (manage ~0: %v); congestion %.0f%%, unphased %.0f%%",
			m, 100*share(m), sp.stepMS, share(m) < 0.01, 100*share(sp.meanMS[phaseSpan["congestion"]]), 100*share(sp.unphasedMS))
	}
}

type summaryPoint struct {
	count int
	mean  float64
}

// skews snapshots the runtime's shard-skew summaries.
func skews(rt *runtime.Runtime) map[string]summaryPoint {
	out := map[string]summaryPoint{}
	for k, s := range rt.PhaseSummaries() {
		if ph, ok := strings.CutSuffix(k, "_skew"); ok {
			out[ph] = summaryPoint{s.Count(), s.Mean()}
		}
	}
	return out
}

// windowMean is the mean of the observations made between two snapshots.
func windowMean(a, b summaryPoint) float64 {
	if b.count <= a.count {
		return 0
	}
	return (b.mean*float64(b.count) - a.mean*float64(a.count)) / float64(b.count-a.count)
}

// commit returns the VCS revision stamped into the binary, if any.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuTicks returns the host's cumulative steal and total CPU ticks from
// /proc/stat, or zeros where it is unreadable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
