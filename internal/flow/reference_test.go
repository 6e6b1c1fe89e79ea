package flow

import (
	"errors"
	"fmt"
	"sort"

	"sheriff/internal/topology"
)

// referenceNetwork is the map-keyed flow plane the dense edge-ID tables
// replaced, kept verbatim as the equivalence oracle: per-link load lives
// in a map keyed by (from, to).
type referenceNetwork struct {
	g      *topology.Graph
	flows  map[int]*Flow
	load   map[[2]int]float64 // directed edge → offered load
	nextID int

	// sweep is the reusable shortest-path table behind routing queries:
	// every cheapestPath call re-sweeps (the load-aware cost changes with
	// every admitted flow) but writes into the same dist/parent storage,
	// so steady-state admission and reroute stop allocating tables.
	sweep *topology.MultiSource
}

// newReferenceNetwork wraps a topology graph. Link loads start at zero.
func newReferenceNetwork(g *topology.Graph) *referenceNetwork {
	return &referenceNetwork{
		g:     g,
		flows: make(map[int]*Flow),
		load:  make(map[[2]int]float64),
	}
}

// AddFlow admits a flow and routes it on the currently cheapest path
// (shortest by transmission-aware cost: load-sensitive, so successive
// flows naturally spread across equal-cost Fat-Tree paths).
func (n *referenceNetwork) AddFlow(src, dst int, rate float64, delaySensitive bool) (*Flow, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("flow: rate must be > 0, got %v", rate)
	}
	if src == dst {
		return nil, errors.New("flow: src == dst")
	}
	f := &Flow{ID: n.nextID, Src: src, Dst: dst, Rate: rate, DelaySensitive: delaySensitive}
	path := n.cheapestPath(src, dst, nil)
	if path == nil {
		return nil, ErrNoRoute
	}
	n.nextID++
	n.flows[f.ID] = f
	n.applyPath(f, path)
	return f, nil
}

// cheapestPath picks the least-loaded shortest path, avoiding the given
// switch nodes.
func (n *referenceNetwork) cheapestPath(src, dst int, avoid map[int]bool) []int {
	cost := func(e topology.Edge) float64 {
		if avoid[e.To] && e.To != dst && e.To != src {
			return topology.Inf
		}
		// Distance-dominant with a load-dependent tie-breaker so
		// equal-length paths spread load.
		u := n.load[[2]int{e.From, e.To}] / e.Capacity
		return e.Distance * (1 + 0.1*u)
	}
	n.sweep = topology.DijkstraFromInto(n.g, []int{src}, cost, n.sweep)
	return n.sweep.Path(src, dst)
}

func (n *referenceNetwork) applyPath(f *Flow, path []int) {
	for i := 1; i < len(path); i++ {
		n.load[[2]int{path[i-1], path[i]}] += f.Rate
	}
	f.path = path
}

func (n *referenceNetwork) clearPath(f *Flow) {
	for i := 1; i < len(f.path); i++ {
		key := [2]int{f.path[i-1], f.path[i]}
		n.load[key] -= f.Rate
		if n.load[key] < 1e-12 {
			delete(n.load, key)
		}
	}
	f.path = nil
}

// SetRate changes a flow's offered rate in place, adjusting the load on
// its current path without re-routing it.
func (n *referenceNetwork) SetRate(f *Flow, rate float64) error {
	if f == nil || n.flows[f.ID] != f {
		return errors.New("flow: unknown flow")
	}
	if rate <= 0 {
		return fmt.Errorf("flow: rate must be > 0, got %v", rate)
	}
	delta := rate - f.Rate
	for i := 1; i < len(f.path); i++ {
		key := [2]int{f.path[i-1], f.path[i]}
		n.load[key] += delta
		if n.load[key] < 1e-12 {
			delete(n.load, key)
		}
	}
	f.Rate = rate
	return nil
}

// RemoveFlow withdraws a flow and releases its load.
func (n *referenceNetwork) RemoveFlow(id int) {
	f := n.flows[id]
	if f == nil {
		return
	}
	n.clearPath(f)
	delete(n.flows, id)
}

// Flow returns the flow with the given ID, or nil.
func (n *referenceNetwork) Flow(id int) *Flow { return n.flows[id] }

// Flows returns all flows ordered by ID.
func (n *referenceNetwork) Flows() []*Flow {
	out := make([]*Flow, 0, len(n.flows))
	for _, f := range n.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LinkLoad returns the offered load on the directed link a→b.
func (n *referenceNetwork) LinkLoad(a, b int) float64 { return n.load[[2]int{a, b}] }

// LinkUtilization returns load/capacity on the directed link a→b, or 0
// when the link does not exist.
func (n *referenceNetwork) LinkUtilization(a, b int) float64 {
	e, ok := n.g.EdgeBetween(a, b)
	if !ok || e.Capacity == 0 {
		return 0
	}
	return n.load[[2]int{a, b}] / e.Capacity
}

// outUtilization is the uplink monitor's read as the runtime made it over
// the map: load/capacity of each outgoing edge, maximized.
func (n *referenceNetwork) outUtilization(node int) float64 {
	max := 0.0
	for _, e := range n.g.Edges(node) {
		u := 0.0
		if e.Capacity != 0 {
			u = n.load[[2]int{e.From, e.To}] / e.Capacity
		}
		if u > max {
			max = u
		}
	}
	return max
}

// SwitchUtilization returns the maximum utilization over a switch's
// incident directed links — the congestion signal a QCN-style CP reports.
func (n *referenceNetwork) SwitchUtilization(sw int) float64 {
	max := 0.0
	for _, e := range n.g.Edges(sw) {
		if e.Capacity == 0 {
			continue
		}
		if u := n.load[[2]int{e.From, e.To}] / e.Capacity; u > max {
			max = u
		}
		if u := n.load[[2]int{e.To, e.From}] / e.Capacity; u > max {
			max = u
		}
	}
	return max
}

// HotSwitches returns switch node IDs whose utilization is at or above
// the threshold fraction, in ascending ID order.
func (n *referenceNetwork) HotSwitches(threshold float64) []int {
	var out []int
	for _, sw := range n.g.Switches() {
		if n.SwitchUtilization(sw) >= threshold {
			out = append(out, sw)
		}
	}
	return out
}

// FlowsThrough returns the flows whose current path crosses the node, in
// ID order.
func (n *referenceNetwork) FlowsThrough(node int) []*Flow {
	var out []*Flow
	for _, f := range n.Flows() {
		for _, hop := range f.path {
			if hop == node {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// Reroute moves one flow onto the cheapest path avoiding the given
// switches. It returns ErrNoRoute (leaving the flow untouched) when no
// such path exists.
func (n *referenceNetwork) Reroute(f *Flow, avoid map[int]bool) error {
	if f == nil || n.flows[f.ID] != f {
		return errors.New("flow: unknown flow")
	}
	old := f.path
	n.clearPath(f)
	path := n.cheapestPath(f.Src, f.Dst, avoid)
	if path == nil {
		n.applyPath(f, old) // restore
		return ErrNoRoute
	}
	n.applyPath(f, path)
	return nil
}

// RerouteAroundHot implements FLOWREROUTE for one hot switch: it moves
// non-delay-sensitive flows crossing the switch onto alternate paths
// until the switch's utilization drops below target (or no flow can
// move). Flows are tried largest-rate first — moving the biggest
// offenders first minimizes the number of touched flows. It returns the
// flows actually rerouted.
// One masked Dijkstra sweep is computed per distinct source per pass and
// shared by every candidate flow from that source, instead of rerunning a
// full single-source search for each congested flow. A successful move
// only changes the load on the moved flow's old and new links, so just
// that source's sweep is dropped (its tree certainly shifted); the other
// sources keep their cached trees. Those stay exact for the distance term
// and drift only in the 0.1·u load tie-break, which the next pass (or the
// next hot-switch report) re-evaluates from fresh state.
func (n *referenceNetwork) RerouteAroundHot(hot int, target float64) []*Flow {
	avoid := map[int]bool{hot: true}
	cands := n.FlowsThrough(hot)
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Rate > cands[j].Rate })
	var moved []*Flow
	sweeps := make(map[int]*topology.MultiSource, 4)
	var spare *topology.MultiSource // storage recycled from invalidated sweeps
	for _, f := range cands {
		if n.SwitchUtilization(hot) < target {
			break
		}
		if f.DelaySensitive {
			continue // the PRIORITY rule: delay-sensitive flows stay put
		}
		if f.Src == hot || f.Dst == hot {
			// cheapestPath exempts the endpoints from the avoid mask, so
			// these flows see a flow-specific mask; route them exactly.
			if err := n.Reroute(f, avoid); err == nil {
				moved = append(moved, f)
			}
			continue
		}
		ms := sweeps[f.Src]
		if ms == nil {
			src := f.Src
			cost := func(e topology.Edge) float64 {
				if e.To == hot {
					return topology.Inf
				}
				u := n.load[[2]int{e.From, e.To}] / e.Capacity
				return e.Distance * (1 + 0.1*u)
			}
			ms = topology.DijkstraFromInto(n.g, []int{src}, cost, spare)
			spare = nil
			sweeps[src] = ms
		}
		path := ms.Path(f.Src, f.Dst)
		if path == nil {
			continue // no route around the hot switch; flow stays put
		}
		n.clearPath(f)
		n.applyPath(f, path)
		moved = append(moved, f)
		delete(sweeps, f.Src)
		spare = ms
	}
	return moved
}

// UpdateGraphBandwidth writes residual bandwidth (capacity − load) back
// into the topology graph so the migration cost model sees the traffic
// plane's state. Negative residuals clamp to zero. Each link is visited
// once, from its lower-ID end: SetBandwidth writes both directions, and
// links are installed with the same capacity both ways, so the visit from
// the other end would only repeat the same write.
func (n *referenceNetwork) UpdateGraphBandwidth() {
	for id := 0; id < n.g.NumNodes(); id++ {
		for _, e := range n.g.Edges(id) {
			if e.To < e.From {
				continue
			}
			residual := e.Capacity - n.load[[2]int{e.From, e.To}]
			if residual < 0 {
				residual = 0
			}
			// Use the smaller of the two directions' residuals to stay
			// conservative per undirected link.
			rev := e.Capacity - n.load[[2]int{e.To, e.From}]
			if rev < 0 {
				rev = 0
			}
			if rev < residual {
				residual = rev
			}
			n.g.SetBandwidth(e.From, e.To, residual)
		}
	}
}

// Snapshot returns a deep copy of the flow table, ordered by flow ID.
func (n *referenceNetwork) Snapshot() *Snapshot {
	snap := &Snapshot{Flows: make([]FlowSnap, 0, len(n.flows)), NextID: n.nextID}
	for _, f := range n.flows {
		snap.Flows = append(snap.Flows, FlowSnap{
			ID:             f.ID,
			Src:            f.Src,
			Dst:            f.Dst,
			Rate:           f.Rate,
			DelaySensitive: f.DelaySensitive,
			Path:           append([]int(nil), f.path...),
		})
	}
	sort.Slice(snap.Flows, func(i, j int) bool { return snap.Flows[i].ID < snap.Flows[j].ID })
	for key, load := range n.load {
		snap.Loads = append(snap.Loads, LinkLoad{A: key[0], B: key[1], Load: load})
	}
	sort.Slice(snap.Loads, func(i, j int) bool {
		if snap.Loads[i].A != snap.Loads[j].A {
			return snap.Loads[i].A < snap.Loads[j].A
		}
		return snap.Loads[i].B < snap.Loads[j].B
	})
	return snap
}

// Restore rebuilds the flow table from a snapshot. The network must be
// empty (freshly constructed over the same topology graph); every path
// must be a walk over existing links with the flow's endpoints at its
// ends. When the snapshot carries link loads they are installed verbatim
// (preserving the live network's accumulated floating-point state);
// otherwise loads are recomputed from the restored paths.
func (n *referenceNetwork) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("flow: restore from nil snapshot")
	}
	if len(n.flows) != 0 {
		return fmt.Errorf("flow: restore into non-empty network (%d flows)", len(n.flows))
	}
	seen := make(map[int]bool, len(snap.Flows))
	for _, fs := range snap.Flows {
		if seen[fs.ID] {
			return fmt.Errorf("flow: snapshot has duplicate flow id %d", fs.ID)
		}
		seen[fs.ID] = true
		if fs.ID >= snap.NextID {
			return fmt.Errorf("flow: snapshot flow id %d not below next_id %d", fs.ID, snap.NextID)
		}
		if err := n.validatePath(fs); err != nil {
			return err
		}
	}
	for _, fs := range snap.Flows {
		f := &Flow{ID: fs.ID, Src: fs.Src, Dst: fs.Dst, Rate: fs.Rate, DelaySensitive: fs.DelaySensitive}
		if len(fs.Path) > 0 {
			n.applyPath(f, append([]int(nil), fs.Path...))
		}
		n.flows[f.ID] = f
	}
	if len(snap.Loads) > 0 {
		load := make(map[[2]int]float64, len(snap.Loads))
		for _, ll := range snap.Loads {
			key := [2]int{ll.A, ll.B}
			if _, dup := load[key]; dup {
				return fmt.Errorf("flow: snapshot has duplicate load entry for link %d→%d", ll.A, ll.B)
			}
			if _, recomputed := n.load[key]; !recomputed {
				return fmt.Errorf("flow: snapshot load entry %d→%d not covered by any flow path", ll.A, ll.B)
			}
			load[key] = ll.Load
		}
		if len(load) != len(n.load) {
			return fmt.Errorf("flow: snapshot carries %d load entries, flow paths cover %d links", len(load), len(n.load))
		}
		n.load = load
	}
	n.nextID = snap.NextID
	return nil
}

func (n *referenceNetwork) validatePath(fs FlowSnap) error {
	if len(fs.Path) == 0 {
		return nil
	}
	if fs.Path[0] != fs.Src || fs.Path[len(fs.Path)-1] != fs.Dst {
		return fmt.Errorf("flow: snapshot flow %d path endpoints %d→%d do not match flow %d→%d",
			fs.ID, fs.Path[0], fs.Path[len(fs.Path)-1], fs.Src, fs.Dst)
	}
	for i := 1; i < len(fs.Path); i++ {
		a, b := fs.Path[i-1], fs.Path[i]
		if a < 0 || a >= n.g.NumNodes() || b < 0 || b >= n.g.NumNodes() {
			return fmt.Errorf("flow: snapshot flow %d path node out of range (%d→%d)", fs.ID, a, b)
		}
		if _, ok := n.g.EdgeBetween(a, b); !ok {
			return fmt.Errorf("flow: snapshot flow %d path uses missing link %d→%d", fs.ID, a, b)
		}
	}
	return nil
}
