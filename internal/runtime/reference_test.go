package runtime

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/pool"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// This file preserves the seed step engine — one data-parallel fan-out
// over a flat []*vmState with per-step fold allocations, full per-VM
// component histories, and eagerly built shims. It is test-only: the
// ground truth the sharded SoA engine is proven bit-exact against (see
// equiv_test.go), the same convention as kmedian/reference_test.go and
// topology/reference_test.go.

// refRuntime is the seed engine over a Runtime's shared state (cluster,
// cost model, flow network, shims, deep pools, history). Only Step,
// StepExternal, Snapshot, Close, and the accessors that do not touch the
// sharded engine (History, PhaseSummaries, DeepReady) are valid on it.
type refRuntime struct {
	*Runtime
	vms      []*vmState   // all vm states, ascending VM ID (phase-1 work items)
	byRack   [][]*vmState // the same states grouped by rack index
	queueMon []*queueMonitor
	workers  *pool.Pool
}

// vmState is one VM's monitoring stack in the reference engine: its
// synthetic workload source and the per-component profile predictor.
// alert/fired are per-step scratch written only by the worker that owns
// the state during phase 1.
type vmState struct {
	vm      *dcn.VM
	rack    int
	gen     traces.Source
	pred    *profilePredictor
	current traces.Profile
	alert   alert.Alert
	fired   bool
}

// newReference assembles the seed engine: eager per-rack shims and queue
// monitors, one vmState per VM.
func newReference(cluster *dcn.Cluster, model *cost.Model, opts Options) (*refRuntime, error) {
	r, err := newBase(cluster, model, opts)
	if err != nil {
		return nil, err
	}
	ref := &refRuntime{
		Runtime: r,
		byRack:  make([][]*vmState, len(r.Cluster.Racks)),
		workers: pool.Shared(),
	}
	for _, rack := range r.Cluster.Racks {
		shim, err := migrate.NewShim(r.Cluster, r.Model, rack, r.opts.Migrate)
		if err != nil {
			return nil, err
		}
		r.shims = append(r.shims, shim)
		qm, err := newQueueMonitor(&trendState{ewmaTrend: holtCoeff}, r.opts.QueueLimit, queueThreshold)
		if err != nil {
			return nil, err
		}
		ref.queueMon = append(ref.queueMon, qm)
	}
	vms := r.Cluster.VMs()
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	comp := func() componentForecaster {
		return &trendState{ewmaTrend: holtCoeff}
	}
	for _, vm := range vms {
		idx := vm.Host().Rack().Index
		st := &vmState{
			vm:   vm,
			rack: idx,
			gen:  r.gen.Source(vm.ID, idx),
			pred: newProfilePredictor(comp(), comp(), comp(), comp()),
		}
		ref.vms = append(ref.vms, st)
		ref.byRack[idx] = append(ref.byRack[idx], st)
	}
	return ref, nil
}

// Close is a no-op: the seed engine fans out over the shared pool and
// owns no shard workers.
func (ref *refRuntime) Close() {}

// Step advances one collection period from the synthetic generators.
func (ref *refRuntime) Step() (*StepStats, error) { return ref.advance(nil) }

// StepExternal advances one collection period from external profiles,
// with Runtime.StepExternal's contract.
func (ref *refRuntime) StepExternal(updates []ExternalUpdate) (*StepStats, error) {
	external := make(map[int]traces.Profile, len(updates))
	for _, u := range updates {
		if ref.Cluster.VM(u.VM) == nil {
			return nil, fmt.Errorf("runtime: external update for unknown VM %d", u.VM)
		}
		external[u.VM] = u.Profile
	}
	return ref.advance(external)
}

// advance is the seed step body. A nil external map means "pull from
// the synthetic generators" (Step); non-nil means profiles come from the
// ingest plane (StepExternal) and the map is read-only under the
// parallel phase.
func (ref *refRuntime) advance(external map[int]traces.Profile) (*StepStats, error) {
	r := ref.Runtime
	stats := &StepStats{Step: r.step}
	r.step++
	rec := r.opts.Recorder
	rec.SetStep(stats.Step)

	// Phase 1 (parallel): observe, predict, raise alerts per VM. Each
	// worker touches only the claimed vmState (its generator, predictor,
	// and VM are owned by that state), so no locking is needed; results
	// are folded in deterministic VM order afterwards.
	phaseStart := time.Now()
	ref.workers.ForEach(len(ref.vms), func(i int) {
		st := ref.vms[i]
		st.fired = false
		if external == nil {
			st.current = st.gen.Next()
		} else if p, ok := external[st.vm.ID]; ok {
			st.current = p
		}
		st.pred.Observe(st.current)
		if st.pred.HistoryLen() < 3 {
			return // not enough history to extrapolate
		}
		a, fired, err := st.pred.Check(r.opts.Thresholds)
		if err != nil || !fired {
			return
		}
		a.VMID = st.vm.ID
		if h := st.vm.Host(); h != nil {
			a.HostID = h.ID
		}
		a.RackIndex = st.rack
		st.vm.Alert = a.Value
		st.alert = a
		st.fired = true
	})
	alertsByRack := make([][]alert.Alert, len(ref.byRack))
	for _, st := range ref.vms {
		if st.fired {
			alertsByRack[st.rack] = append(alertsByRack[st.rack], st.alert)
			stats.ServerAlerts++
		}
	}
	if r.opts.DeepPredict {
		ref.deepStep(stats, rec)
	}
	stats.Timings.Predict = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "predict",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Predict.Seconds()})

	// Phase 2: rebuild the traffic plane from the dependency graph.
	phaseStart = time.Now()
	ref.syncFlows()
	stats.Timings.Flows = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "flows",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Flows.Seconds()})

	// Phase 3: switch-side congestion. Hot outer switches trigger
	// FLOWREROUTE; ToR uplink monitors raise FromLocalToR alerts.
	phaseStart = time.Now()
	var hot []int
	if r.opts.UseQCN {
		hot = r.qcnHotSwitches(stats)
	} else {
		hot = r.Flows.HotSwitches(r.opts.HotThreshold)
	}
	stats.HotSwitches = len(hot)
	for _, sw := range hot {
		stats.SwitchAlerts++
		if r.opts.DisableReroute {
			continue
		}
		moved := r.Flows.RerouteAroundHot(sw, r.opts.HotThreshold)
		stats.Reroutes += len(moved)
	}
	for idx, rack := range r.Cluster.Racks {
		util := r.uplinkUtilization(rack)
		if util > stats.MaxUplinkUtil {
			stats.MaxUplinkUtil = util
		}
		ref.queueMon[idx].Observe(util)
		if a, fired, err := ref.queueMon[idx].Check(); err == nil && fired {
			a.RackIndex = idx
			alertsByRack[idx] = append(alertsByRack[idx], a)
			stats.ToRAlerts++
		}
	}
	stats.Timings.Congestion = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "congestion",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Congestion.Seconds()})
	if rec.Enabled() {
		for idx := range alertsByRack {
			if n := len(alertsByRack[idx]); n > 0 {
				rec.Record(obs.Event{Kind: obs.KindAlerts, Phase: "manage",
					Shim: idx, VM: -1, Host: -1, Value: float64(n)})
			}
		}
	}

	// Phase 4 (serialized): management. The cost model's shortest-path
	// tables are refreshed lazily: only a step that actually manages
	// alerts pays for the refresh, and a refresh is carried over
	// (modelStale) so the tables reflect the latest traffic plane when the
	// next alert arrives.
	phaseStart = time.Now()
	r.modelStale = true
	for idx, shim := range r.shims {
		// A rack participates when it has fresh alerts or fail-queued VMs
		// from an earlier step awaiting retry (queue disabled = never).
		if len(alertsByRack[idx]) == 0 && shim.QueueLen() == 0 {
			continue
		}
		if r.modelStale {
			r.Flows.UpdateGraphBandwidth()
			r.Model.Refresh()
			r.modelStale = false
		}
		shimStart := time.Now()
		rep, err := shim.ProcessAlerts(alertsByRack[idx])
		if err != nil {
			return nil, fmt.Errorf("runtime: shim %d: %w", idx, err)
		}
		rec.Record(obs.Event{Kind: obs.KindManage, Phase: "manage",
			Shim: idx, VM: -1, Host: -1, Value: time.Since(shimStart).Seconds()})
		stats.Migrations += len(rep.Migrations)
		stats.MigrationCost += rep.TotalCost
		stats.Preemptions += rep.Preemptions
		stats.Requeued += rep.Requeued
	}
	stats.Timings.Manage = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "manage",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Manage.Seconds()})

	stats.WorkloadStdDev = r.Cluster.WorkloadStdDev()
	for i, d := range []time.Duration{stats.Timings.Predict, stats.Timings.Flows, stats.Timings.Congestion, stats.Timings.Manage} {
		r.phaseSummaries[i].Observe(d.Seconds())
	}
	r.recordHistory(*stats)
	return stats, nil
}

// deepStep advances the per-rack deep forecasting pools: each rack's
// aggregate stress (mean of its VMs' current profile maxima) either
// extends the pre-fit history, triggers the one-time pool fit, or feeds
// the fitted selector, whose next-period prediction is recorded and
// counted as a deep warning when it crosses the hot threshold. Fits and
// predictions are deterministic (seeded NARNETs, fixed pool order), so
// deep state snapshots and restores bit-exactly.
func (ref *refRuntime) deepStep(stats *StepStats, rec *obs.Recorder) {
	r := ref.Runtime
	for idx := range ref.byRack {
		if len(ref.byRack[idx]) == 0 {
			continue
		}
		agg := 0.0
		for _, st := range ref.byRack[idx] {
			agg += st.current.Max()
		}
		agg /= float64(len(ref.byRack[idx]))

		sel := r.deep[idx]
		if sel == nil {
			h := r.deepHist[idx]
			h.Append(agg)
			if h.Len() < r.opts.DeepFitAfter {
				continue
			}
			fitted, err := predictor.New(h, predictor.Options{Seed: r.opts.Seed + int64(idx)})
			if err != nil {
				// Not enough signal yet (e.g. constant history); keep
				// collecting and retry next step.
				continue
			}
			r.deep[idx] = fitted
			r.deepHist[idx] = timeseries.New(nil) // history lives in the selector now
			sel = fitted
		} else {
			sel.Observe(agg)
		}
		p, err := sel.Predict()
		if err != nil {
			continue
		}
		rec.Record(obs.Event{Kind: obs.KindForecast, Phase: "predict",
			Shim: idx, VM: -1, Host: -1, Value: p})
		if p > r.opts.HotThreshold {
			stats.DeepWarnings++
		}
	}
}

// syncFlows reconciles the flow set with the VM dependency graph: one
// flow per dependent pair hosted in different racks, with rate driven by
// the pair's current traffic component. Existing flows keep their routes
// (so reroutes survive across steps); only rate changes are applied in
// place, and flows whose endpoints migrated are re-created.
func (ref *refRuntime) syncFlows() {
	r := ref.Runtime
	type want struct {
		src, dst int
		rate     float64
		ds       bool
	}
	desired := make(map[[2]int]want)
	for idx := range ref.byRack {
		for _, st := range ref.byRack[idx] {
			for _, peerID := range r.Cluster.Deps.Peers(st.vm.ID) {
				peer := r.Cluster.VM(peerID)
				if peer == nil || peer.Host() == nil || st.vm.Host() == nil {
					continue
				}
				a, b := st.vm.ID, peerID
				if a > b {
					a, b = b, a
				}
				key := [2]int{a, b}
				if _, ok := desired[key]; ok {
					continue
				}
				srcNode := st.vm.Host().Rack().NodeID
				dstNode := peer.Host().Rack().NodeID
				if srcNode == dstNode {
					continue // intra-rack traffic never crosses the fabric
				}
				desired[key] = want{
					src:  srcNode,
					dst:  dstNode,
					rate: r.opts.FlowRate(st.current.TRF),
					// Dependencies with delay-sensitive endpoints produce
					// delay-sensitive flows (PRIORITY must not move them).
					ds: st.vm.DelaySensitive || peer.DelaySensitive,
				}
			}
		}
	}
	// Reconcile in deterministic key order: drop stale flows, re-route
	// moved ones, update rates (map iteration order would perturb the
	// floating-point load sums).
	existing := make([][2]int, 0, len(r.flowByPair))
	for key := range r.flowByPair {
		existing = append(existing, key)
	}
	sortKeys(existing)
	for _, key := range existing {
		id := r.flowByPair[key]
		f := r.Flows.Flow(id)
		w, ok := desired[key]
		if f == nil || !ok || f.Src != w.src || f.Dst != w.dst {
			if f != nil {
				r.Flows.RemoveFlow(id)
			}
			delete(r.flowByPair, key)
			continue
		}
		if f.Rate != w.rate {
			// Rate update failure is impossible for positive rates on a
			// live flow; ignore the error to keep the loop total.
			_ = r.Flows.SetRate(f, w.rate)
		}
		delete(desired, key) // handled
	}
	// Admit new pairs in deterministic order.
	keys := make([][2]int, 0, len(desired))
	for key := range desired {
		keys = append(keys, key)
	}
	sortKeys(keys)
	for _, key := range keys {
		w := desired[key]
		f, err := r.Flows.AddFlow(w.src, w.dst, w.rate, w.ds)
		if err != nil {
			continue // unroutable pairs are skipped, not fatal
		}
		r.flowByPair[key] = f.ID
	}
}

// Snapshot emits the same version-2 snapshot as Runtime.Snapshot for the
// same trajectory: the shared base plus each VM's and queue monitor's
// history cold-folded into its Holt state.
func (ref *refRuntime) Snapshot() (*Snapshot, error) {
	snap, err := ref.snapshotBase()
	if err != nil {
		return nil, err
	}
	for _, st := range ref.vms {
		h := st.pred.Histories()
		vs := VMSnap{ID: st.vm.ID, GenPos: st.gen.Pos(), Current: st.current, Hist: len(h[0])}
		for c := 0; c < 4; c++ {
			vs.Trend[c] = foldHolt(h[c])
		}
		snap.VMs = append(snap.VMs, vs)
	}
	for _, qm := range ref.queueMon {
		h := qm.History()
		lt := foldHolt(h)
		snap.Queues = append(snap.Queues, [3]float64{lt[0], lt[1], float64(len(h))})
	}
	return snap, nil
}

// foldHolt cold-smooths a full history into its Holt state — how the
// reference engine (which keeps histories, not states) emits version-2
// snapshots. Bit-exact with the sharded engine's incremental fold.
func foldHolt(h []float64) [2]float64 {
	if len(h) == 0 {
		return [2]float64{}
	}
	level, trend := h[0], 0.0
	for t := 1; t < len(h); t++ {
		level, trend = holtCoeff.fold(level, trend, h[t])
	}
	return [2]float64{level, trend}
}

// ForecastFrom implements componentForecaster with a cold O(n) pass of
// Holt's linear method over the whole history.
func (e ewmaTrend) ForecastFrom(h *timeseries.Series, n int) ([]float64, error) {
	if h.Len() == 0 {
		return nil, errors.New("runtime: empty history")
	}
	level := h.At(0)
	trend := 0.0
	for t := 1; t < h.Len(); t++ {
		level, trend = e.fold(level, trend, h.At(t))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = level + trend*float64(i+1)
	}
	return out, nil
}

// trendState is ewmaTrend with suffix-aware incremental state: the level
// and trend fully determine both the forecast and the continuation of the
// recursion, so a bound history that only grows (the per-step collection
// pattern) costs O(new points) per forecast instead of a full O(n)
// re-smoothing. The continuation is bit-exact with ewmaTrend's cold pass.
// Each trendState must be bound to exactly one append-only history; it is
// not safe for concurrent use (each VM component and queue monitor owns
// its own instance).
type trendState struct {
	ewmaTrend
	n            int     // observations folded into level/trend
	last         float64 // history.At(n-1), to detect non-append mutation
	level, trend float64
}

// ForecastFrom implements componentForecaster incrementally.
func (ts *trendState) ForecastFrom(h *timeseries.Series, n int) ([]float64, error) {
	if h.Len() == 0 {
		return nil, errors.New("runtime: empty history")
	}
	start := ts.n
	if start < 1 || start > h.Len() || h.At(start-1) != ts.last {
		ts.level, ts.trend = h.At(0), 0
		start = 1
	}
	for t := start; t < h.Len(); t++ {
		ts.level, ts.trend = ts.fold(ts.level, ts.trend, h.At(t))
	}
	ts.n = h.Len()
	ts.last = h.At(h.Len() - 1)
	out := make([]float64, n)
	for i := range out {
		out[i] = ts.level + ts.trend*float64(i+1)
	}
	return out, nil
}

// componentForecaster predicts one workload-profile component from its
// history.
type componentForecaster interface {
	ForecastFrom(history *timeseries.Series, h int) ([]float64, error)
}

// profilePredictor forecasts a full workload profile one collection
// period (T seconds) ahead by running one forecaster per component over
// its own history, as Sec. IV.A prescribes ("respectively process each
// feature … with prediction models that can best explain it").
type profilePredictor struct {
	cpu, mem, io, trf     componentForecaster
	hCPU, hMem, hIO, hTRF *timeseries.Series
}

// newProfilePredictor builds a predictor from per-component forecasters
// and their shared-length histories.
func newProfilePredictor(cpu, mem, io, trf componentForecaster) *profilePredictor {
	return &profilePredictor{
		cpu: cpu, mem: mem, io: io, trf: trf,
		hCPU: timeseries.New(nil), hMem: timeseries.New(nil),
		hIO: timeseries.New(nil), hTRF: timeseries.New(nil),
	}
}

// Observe appends one measured profile to the component histories.
func (pp *profilePredictor) Observe(p traces.Profile) {
	pp.hCPU.Append(p.CPU)
	pp.hMem.Append(p.Mem)
	pp.hIO.Append(p.IO)
	pp.hTRF.Append(p.TRF)
}

// HistoryLen returns the number of observed profiles.
func (pp *profilePredictor) HistoryLen() int { return pp.hCPU.Len() }

// Predict forecasts the profile one step ahead. Components are clamped
// to [0,1] since the profile is normalized by definition.
func (pp *profilePredictor) Predict() (traces.Profile, error) {
	get := func(f componentForecaster, h *timeseries.Series) (float64, error) {
		fc, err := f.ForecastFrom(h, 1)
		if err != nil {
			return 0, err
		}
		return clamp01(fc[0]), nil
	}
	var p traces.Profile
	var err error
	if p.CPU, err = get(pp.cpu, pp.hCPU); err != nil {
		return p, fmt.Errorf("runtime: CPU forecast: %w", err)
	}
	if p.Mem, err = get(pp.mem, pp.hMem); err != nil {
		return p, fmt.Errorf("runtime: MEM forecast: %w", err)
	}
	if p.IO, err = get(pp.io, pp.hIO); err != nil {
		return p, fmt.Errorf("runtime: IO forecast: %w", err)
	}
	if p.TRF, err = get(pp.trf, pp.hTRF); err != nil {
		return p, fmt.Errorf("runtime: TRF forecast: %w", err)
	}
	return p, nil
}

// Histories returns copies of the four component histories in profile
// order [CPU, MEM, IO, TRF].
func (pp *profilePredictor) Histories() [4][]float64 {
	return [4][]float64{pp.hCPU.Values(), pp.hMem.Values(), pp.hIO.Values(), pp.hTRF.Values()}
}

// Check predicts one step ahead and applies the ALERT rule, returning the
// alert (zero Value when not fired).
func (pp *profilePredictor) Check(th alert.Thresholds) (alert.Alert, bool, error) {
	p, err := pp.Predict()
	if err != nil {
		return alert.Alert{}, false, err
	}
	v, fired := alert.Evaluate(p, th)
	return alert.Alert{Kind: alert.FromServer, Value: v}, fired, nil
}

// queueMonitor watches a ToR switch queue length (Sec. IV.A: "each v_i
// also monitors the queue length of the associated ToR switch") and fires
// a FromLocalToR alert when the predicted queue occupancy crosses the
// threshold fraction of the queue limit.
type queueMonitor struct {
	history   *timeseries.Series
	forecast  componentForecaster
	limit     float64
	threshold float64 // fraction of limit
}

// newQueueMonitor builds a queue monitor. threshold is a fraction in
// (0,1]; limit is the queue capacity in the same units as observations.
func newQueueMonitor(f componentForecaster, limit, threshold float64) (*queueMonitor, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("runtime: queue limit must be > 0, got %v", limit)
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("runtime: queue threshold must be in (0,1], got %v", threshold)
	}
	return &queueMonitor{
		history:   timeseries.New(nil),
		forecast:  f,
		limit:     limit,
		threshold: threshold,
	}, nil
}

// Observe appends one queue-length sample.
func (q *queueMonitor) Observe(length float64) { q.history.Append(length) }

// History returns a copy of the observed queue-length samples.
func (q *queueMonitor) History() []float64 { return q.history.Values() }

// Check predicts the next queue length and fires when it exceeds
// threshold×limit. The alert Value is predicted occupancy in [0,1].
func (q *queueMonitor) Check() (alert.Alert, bool, error) {
	fc, err := q.forecast.ForecastFrom(q.history, 1)
	if err != nil {
		return alert.Alert{}, false, fmt.Errorf("runtime: queue forecast: %w", err)
	}
	occ := clamp01(fc[0] / q.limit)
	if occ > q.threshold {
		return alert.Alert{Kind: alert.FromLocalToR, Value: occ}, true, nil
	}
	return alert.Alert{}, false, nil
}
