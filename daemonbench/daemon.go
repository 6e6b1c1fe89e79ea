package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/dcn"
	"sheriff/internal/ingest"
	"sheriff/internal/obs"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/traces"
)

// daemon is one in-process sheriffd, wired as cmd/sheriffd wires it,
// plus the closed-loop load generator feeding it: one batch per period
// holding every VM's profile, offered after the previous StepExternal
// returned.
type daemon struct {
	rt  *runtime.Runtime
	svc *ingest.Service

	gens    []traces.Source // per VM, ascending VM ID
	updates []ingest.Update
	ext     []runtime.ExternalUpdate

	// last holds the ingest counters after the previous period.
	last ingest.Stats
}

// build assembles the daemon. rec, when non-nil, is attached to the
// runtime so its phase timings and manage events reach the tracer.
func build(w workload, seed int64, shards int, rec *obs.Recorder) (*daemon, error) {
	th := w.threshold
	rt, err := sim.BuildRuntime(w.cfg, runtime.Options{
		Recorder:    rec,
		DeepPredict: w.deep,
		Shards:      shards,
		Thresholds:  alert.Thresholds{CPU: th, Mem: th, IO: th, TRF: th},
		Traces:      traces.Options{Kind: w.traces, Surge: w.surge},
	})
	if err != nil {
		return nil, err
	}
	svc, err := ingest.FromCluster(rt.Cluster, ingest.Options{QueueLimit: w.queueLimit})
	if err != nil {
		rt.Close()
		return nil, err
	}
	gen, err := traces.New(traces.Options{Kind: w.traces, Seed: traceSeed(seed), Surge: w.surge})
	if err != nil {
		rt.Close()
		return nil, err
	}
	vms := rt.Cluster.VMs() // ascending ID
	d := &daemon{
		rt:      rt,
		svc:     svc,
		gens:    make([]traces.Source, len(vms)),
		updates: make([]ingest.Update, len(vms)),
		ext:     make([]runtime.ExternalUpdate, len(vms)),
	}
	for i, vm := range vms {
		d.gens[i] = gen.Source(vm.ID, vm.Host().Rack().Index)
		d.updates[i].VM = vm.ID
		d.ext[i].VM = vm.ID
	}
	return d, nil
}

func (d *daemon) close() { d.rt.Close() }

// generate draws the next period's profile for every VM. It is load
// generation, outside the timed loop.
func (d *daemon) generate() {
	for i, g := range d.gens {
		p := g.Next()
		d.updates[i].Profile = p
		d.ext[i].Profile = p
	}
}

// period is the result of one collection period.
type period struct {
	stats     *runtime.StepStats
	latency   time.Duration // OfferBatch call to StepExternal return
	prealerts int
	dropped   int // updates tail-dropped at ingest this period
}

// step runs one untraced period: offer → triage → poll → StepExternal.
func (d *daemon) step() (period, error) {
	d.generate()
	start := time.Now()
	if _, err := d.svc.OfferBatch(d.updates); err != nil {
		return period{}, err
	}
	d.svc.ProcessPending()
	pre := d.svc.Poll()
	s, err := d.rt.StepExternal(d.ext)
	lat := time.Since(start)
	p := period{stats: s, latency: lat, prealerts: len(pre)}
	if err != nil {
		return p, fmt.Errorf("StepExternal refused %d updates: %w", len(d.ext), err)
	}
	return p, d.checkIngest(&p)
}

// checkIngest verifies ingest conservation after the period's drain —
// every offered update was accepted or dropped, every accepted one was
// triaged, nothing is left queued — and records this period's drops.
func (d *daemon) checkIngest(p *period) error {
	st := d.svc.Stats()
	p.dropped = int(st.Dropped - d.last.Dropped)
	d.last = st
	switch {
	case st.Offered != st.Accepted+st.Dropped:
		return fmt.Errorf("ingest conservation: offered %d != accepted %d + dropped %d", st.Offered, st.Accepted, st.Dropped)
	case st.Processed != st.Accepted:
		return fmt.Errorf("ingest conservation: processed %d != accepted %d", st.Processed, st.Accepted)
	case st.Pending != 0:
		return fmt.Errorf("ingest conservation: %d updates still pending after the drain", st.Pending)
	}
	return nil
}

// checkCluster verifies the cluster invariants at the end of a run:
// every VM sits on exactly one host, that host's VMs() lists it, and no
// host exceeds its capacity (the default placement never oversubscribes).
func checkCluster(c *dcn.Cluster) error {
	vms := c.VMs()
	seen := make(map[int]int, len(vms))
	for _, h := range c.Hosts() {
		used := 0.0
		for _, vm := range h.VMs() {
			seen[vm.ID]++
			if vm.Host() != h {
				return fmt.Errorf("cluster: host %d lists VM %d, which sits on another host", h.ID, vm.ID)
			}
			used += vm.Capacity
		}
		if used > h.Capacity+1e-9 {
			return fmt.Errorf("cluster: host %d holds %.3f over capacity %.3f", h.ID, used, h.Capacity)
		}
	}
	for _, vm := range vms {
		if vm.Host() == nil {
			return fmt.Errorf("cluster: VM %d has no host", vm.ID)
		}
		if n := seen[vm.ID]; n != 1 {
			return fmt.Errorf("cluster: VM %d is listed by %d hosts, want 1", vm.ID, n)
		}
	}
	if len(seen) != len(vms) {
		return fmt.Errorf("cluster: hosts list %d VMs, cluster has %d", len(seen), len(vms))
	}
	return nil
}

// digest folds the decisions of a sequence of steps — every StepStats
// field but the wall-clock Timings — into one hash, so two runs of one
// seed can be compared for identical decisions.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(s *runtime.StepStats) {
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		d.h.Write(buf[:])
	}
	for _, v := range []int{s.Step, s.ServerAlerts, s.ToRAlerts, s.SwitchAlerts, s.Migrations,
		s.Preemptions, s.Requeued, s.Reroutes, s.HotSwitches, s.QCNFeedbacks, s.DeepWarnings} {
		put(uint64(v))
	}
	for _, v := range []float64{s.MigrationCost, s.WorkloadStdDev, s.MaxUplinkUtil} {
		put(math.Float64bits(v))
	}
}

func (d digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// checkDigest fails when two runs of one seed made different decisions.
func checkDigest(what, want, got string) error {
	if want != got {
		return fmt.Errorf("determinism: %s decision digest %s != %s", what, got, want)
	}
	return nil
}

// percentile returns the nearest-rank value at q in sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tail returns the highest percentile that leaves at least ten samples
// beyond it, and the value there.
func tail(sorted []float64) (q, v float64) {
	n := len(sorted)
	if n <= 10 {
		return 0, sorted[0]
	}
	q = float64(n-10) / float64(n)
	return q, sorted[n-11]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
