package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"sheriff/internal/obs"
)

// span is one traced interval. Spans of one collection period share
// Period; setup spans have Period -1. Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Period int    `json:"period"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names. The runtime.* children and migrate.shim come from the
// runtime's own phase timings and KindManage events, read through the
// recorder sink; the rest wrap the public calls from this benchmark.
const (
	spanBuild     = "setup.build"
	spanFirstStep = "setup.first_step"
	spanWarmup    = "setup.warmup"
	spanNext      = "traces.next"
	spanOffer     = "ingest.offer"
	spanTriage    = "ingest.triage"
	spanPoll      = "ingest.poll"
	spanStep      = "runtime.step"
	spanShim      = "migrate.shim"
)

var phaseSpan = map[string]string{
	"predict":    "runtime.predict",
	"flows":      "runtime.flows",
	"congestion": "runtime.congestion",
	"manage":     "runtime.manage",
}

// tracer keeps spans in memory until the run ends. Its Sink turns the
// runtime's phase and manage events into child spans of the open
// runtime.step span: each event arrives as its interval ends, and its
// Value is the interval's length in seconds.
type tracer struct {
	origin time.Time
	spans  []span
	period int

	stepID  int   // open runtime.step span, 0 when none
	pending []int // shim spans awaiting their manage parent
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open starts a root span and returns its ID; close ends it.
func (t *tracer) open(name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Period: t.period, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) close(id int) { t.spans[id-1].End = t.now() }

// Emit implements obs.Sink. The recorder calls it under its own lock,
// on the goroutine running the step's serial part.
func (t *tracer) Emit(e obs.Event) error {
	if t.stepID == 0 {
		return nil
	}
	end := t.now()
	start := end - int64(e.Value*float64(time.Second))
	switch {
	case e.Kind == obs.KindManage:
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.stepID, Period: t.period, Name: spanShim, Start: start, End: end})
		t.pending = append(t.pending, len(t.spans))
	case e.Kind == obs.KindPhase && phaseSpan[e.Phase] != "":
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.stepID, Period: t.period, Name: phaseSpan[e.Phase], Start: start, End: end})
		if e.Phase == "manage" {
			for _, id := range t.pending {
				t.spans[id-1].Parent = len(t.spans)
			}
			t.pending = t.pending[:0]
		}
	}
	return nil
}

// allocs returns the process's cumulative heap allocation count.
func allocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracedStep is step with spans around each public call and heap
// allocation counts around the ingest calls and StepExternal.
func (d *daemon) tracedStep(t *tracer, rec *obs.Recorder, c *layerCounts) (period, error) {
	t.period = int(c.periods)
	id := t.open(spanNext)
	d.generate()
	t.close(id)

	a0 := allocs()
	start := time.Now()
	id = t.open(spanOffer)
	if _, err := d.svc.OfferBatch(d.updates); err != nil {
		return period{}, err
	}
	t.close(id)
	id = t.open(spanTriage)
	d.svc.ProcessPending()
	t.close(id)
	id = t.open(spanPoll)
	pre := d.svc.Poll()
	t.close(id)
	a1 := allocs()

	req, rej := rec.Count(obs.KindRequest), rec.Count(obs.KindReject)
	t.stepID = t.open(spanStep)
	s, err := d.rt.StepExternal(d.ext)
	t.close(t.stepID)
	t.stepID = 0
	lat := time.Since(start)
	a2 := allocs()

	p := period{stats: s, latency: lat, prealerts: len(pre)}
	if err != nil {
		return p, fmt.Errorf("StepExternal refused %d updates: %w", len(d.ext), err)
	}
	c.periods++
	c.ingestAllocs += a1 - a0
	c.stepAllocs += a2 - a1
	c.requests += rec.Count(obs.KindRequest) - req
	c.rejects += rec.Count(obs.KindReject) - rej
	return p, d.checkIngest(&p)
}

// layerCounts accumulates the counters a traced window reads around
// each call.
type layerCounts struct {
	periods      uint64
	ingestAllocs uint64
	stepAllocs   uint64
	requests     uint64
	rejects      uint64
}

// spanStats holds per-period means, in milliseconds, of the spans of
// the timed periods, keyed by span name, plus derived self times.
type spanStats struct {
	meanMS      map[string]float64
	refreshMS   float64 // runtime.manage minus its migrate.shim children
	unphasedMS  float64 // runtime.step self time
	activeShims float64 // migrate.shim spans per period
	stepMS      float64
}

// reduceSpans reduces the spans of timed periods 0..n-1; set-up spans
// (period -1) are left out.
func reduceSpans(spans []span, n int) spanStats {
	st := spanStats{meanMS: map[string]float64{}}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	fn := float64(n)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / fn }
	for _, s := range spans {
		if s.Period < 0 || s.Period >= n {
			continue
		}
		st.meanMS[s.Name] += ms(s.dur())
		switch s.Name {
		case spanShim:
			st.activeShims += 1 / fn
		case spanStep:
			st.unphasedMS += ms(s.dur() - covered(s, children[s.ID]))
		case phaseSpan["manage"]:
			st.refreshMS += ms(s.dur() - covered(s, children[s.ID]))
		}
	}
	st.stepMS = st.meanMS[spanStep]
	return st
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		switch {
		case i == 0:
			curS, curE = v[0], v[1]
		case v[0] > curE:
			total += curE - curS
			curS, curE = v[0], v[1]
		default:
			curE = max(curE, v[1])
		}
	}
	if len(iv) > 0 {
		total += curE - curS
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
