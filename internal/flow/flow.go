// Package flow models the traffic plane under Sheriff's management: flows
// between racks routed over the wired graph, per-link load accounting,
// hot-switch detection, and the FLOWREROUTE primitive of Sec. III.B —
// moving conflict flows onto paths that avoid congested switches, which
// the paper prefers over VM migration because rerouting is cheaper than a
// live migration.
package flow

import (
	"errors"
	"fmt"
	"sort"

	"sheriff/internal/topology"
)

// Flow is one unidirectional traffic aggregate between two rack nodes.
type Flow struct {
	ID             int
	Src, Dst       int     // topology node IDs (rack kind)
	Rate           float64 // offered rate in capacity units
	DelaySensitive bool

	path []int // current route, inclusive of endpoints
}

// Path returns the flow's current route (nil if unrouted). The slice is
// owned by the network; treat it as read-only.
func (f *Flow) Path() []int { return f.path }

// Network tracks flows and per-link load over a topology graph.
type Network struct {
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

// NewNetwork wraps a topology graph. Link loads start at zero.
func NewNetwork(g *topology.Graph) *Network {
	return &Network{
		g:     g,
		flows: make(map[int]*Flow),
		load:  make(map[[2]int]float64),
	}
}

// ErrNoRoute is returned when no path (or no admissible path) exists.
var ErrNoRoute = errors.New("flow: no route between endpoints")

// AddFlow admits a flow and routes it on the currently cheapest path
// (shortest by transmission-aware cost: load-sensitive, so successive
// flows naturally spread across equal-cost Fat-Tree paths).
func (n *Network) AddFlow(src, dst int, rate float64, delaySensitive bool) (*Flow, error) {
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
func (n *Network) cheapestPath(src, dst int, avoid map[int]bool) []int {
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

func (n *Network) applyPath(f *Flow, path []int) {
	for i := 1; i < len(path); i++ {
		n.load[[2]int{path[i-1], path[i]}] += f.Rate
	}
	f.path = path
}

func (n *Network) clearPath(f *Flow) {
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
func (n *Network) SetRate(f *Flow, rate float64) error {
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
func (n *Network) RemoveFlow(id int) {
	f := n.flows[id]
	if f == nil {
		return
	}
	n.clearPath(f)
	delete(n.flows, id)
}

// Flow returns the flow with the given ID, or nil.
func (n *Network) Flow(id int) *Flow { return n.flows[id] }

// Flows returns all flows ordered by ID.
func (n *Network) Flows() []*Flow {
	out := make([]*Flow, 0, len(n.flows))
	for _, f := range n.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LinkLoad returns the offered load on the directed link a→b.
func (n *Network) LinkLoad(a, b int) float64 { return n.load[[2]int{a, b}] }

// LinkUtilization returns load/capacity on the directed link a→b, or 0
// when the link does not exist.
func (n *Network) LinkUtilization(a, b int) float64 {
	e, ok := n.g.EdgeBetween(a, b)
	if !ok || e.Capacity == 0 {
		return 0
	}
	return n.load[[2]int{a, b}] / e.Capacity
}

// EdgeUtilization returns load/capacity for an already-resolved edge,
// skipping the O(degree) EdgeBetween lookup LinkUtilization pays. Link
// capacity is symmetric (AddLink installs both directions alike), so the
// reverse direction reuses e.Capacity.
func (n *Network) EdgeUtilization(e topology.Edge) float64 {
	if e.Capacity == 0 {
		return 0
	}
	return n.load[[2]int{e.From, e.To}] / e.Capacity
}

// SwitchUtilization returns the maximum utilization over a switch's
// incident directed links — the congestion signal a QCN-style CP reports.
func (n *Network) SwitchUtilization(sw int) float64 {
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
func (n *Network) HotSwitches(threshold float64) []int {
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
func (n *Network) FlowsThrough(node int) []*Flow {
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
func (n *Network) Reroute(f *Flow, avoid map[int]bool) error {
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
func (n *Network) RerouteAroundHot(hot int, target float64) []*Flow {
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

// AlternatePaths returns up to k loopless alternatives for a flow,
// cheapest first, for inspection and tests.
func (n *Network) AlternatePaths(f *Flow, k int) [][]int {
	return topology.KShortestPaths(n.g, f.Src, f.Dst, k, topology.DistanceCost)
}

// UpdateGraphBandwidth writes residual bandwidth (capacity − load) back
// into the topology graph so the migration cost model sees the traffic
// plane's state. Negative residuals clamp to zero. Each link is visited
// once, from its lower-ID end: SetBandwidth writes both directions, and
// links are installed with the same capacity both ways, so the visit from
// the other end would only repeat the same write.
func (n *Network) UpdateGraphBandwidth() {
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
