// Package cost implements the VM migration cost function of the paper's
// Sec. III.C (Eqn. 1):
//
//	Cost(v_i, v_p) = C_r + C_d·D(e)·χ_ip + Σ_{e ∈ P(v_i,v_p)} (δ·T(e) + η·P(e))
//
// where C_r is the fixed computing cost of the six-stage pre-copy live
// migration (initialization, reservation, commitment, activation — Fig. 2;
// downtime ≈ 60 ms is ignored as the paper does), T(e) = size/B(e) is the
// transmission time, P(e) = B(e)/C(e) the bandwidth utilization rate, and
// the dependency term charges C_d per unit of distance change between the
// VM and its dependent peers in G_d.
//
// Following Sec. V.A.2, transmission cost is collapsed from a path
// function g(v_i, v_p, e_ip) into a pair function G(v_i, v_p) by running
// Floyd–Warshall with the per-edge transmission cost, so the cost between
// two racks never depends on which path is taken: the cheapest one is
// always used.
package cost

import (
	"errors"
	"fmt"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// Params holds the constants of Eqn. (1). The paper's simulation settings
// (Sec. VI.B) are C_r = 100, δ = η = 1, C_d = 1.
type Params struct {
	Cr             float64 // computing cost of one live migration
	Cd             float64 // unit dependency cost per distance in G_d
	Delta          float64 // δ: weight of transmission time T(e)
	Eta            float64 // η: weight of utilization rate P(e)
	BandwidthFloor float64 // B_t: minimum usable available bandwidth
	RefSize        float64 // reference VM size for the pair-cost table
}

// PaperParams returns the simulation constants of Sec. VI.B.
func PaperParams() Params {
	return Params{Cr: 100, Cd: 1, Delta: 1, Eta: 1, BandwidthFloor: 0, RefSize: 10}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Cr < 0 || p.Cd < 0 || p.Delta < 0 || p.Eta < 0 {
		return fmt.Errorf("cost: negative parameter in %+v", p)
	}
	if p.RefSize <= 0 {
		return fmt.Errorf("cost: RefSize must be > 0, got %v", p.RefSize)
	}
	return nil
}

// ErrBandwidthBelowFloor is returned when every path to the destination
// crosses a link with B(e) < B_t (the constraint "B(e) must be greater
// than a threshold value B_t").
var ErrBandwidthBelowFloor = errors.New("cost: no path with bandwidth above threshold")

// Model evaluates migration costs over one cluster. Construct with New;
// call Refresh after changing link bandwidths.
type Model struct {
	params  Params
	cluster *dcn.Cluster

	trans *topology.MultiSource // Σ (δT+ηP) from every rack, cheapest path
	dist  *topology.MultiSource // Σ D(e): physical distance from every rack

	racks     []int             // cached rack sources, rebuilt on wiring change
	transCost topology.EdgeCost // per-edge δT+ηP, built once from params
	structVer uint64            // Graph.StructVersion behind racks and dist
}

// New builds a cost model. It runs no shortest-path sweep: rows are swept
// on demand by the first query that reads them.
func New(c *dcn.Cluster, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{params: p, cluster: c}
	m.transCost = func(e topology.Edge) float64 {
		if e.Bandwidth <= 0 || e.Bandwidth < p.BandwidthFloor {
			return topology.Inf
		}
		t := p.RefSize / e.Bandwidth // T(e) for the reference size
		u := e.Bandwidth / e.Capacity
		return p.Delta*t + p.Eta*u
	}
	m.Refresh()
	return m, nil
}

// Refresh snapshots the current link state for later cost queries. Only
// rack nodes are sources — Eqn. (1) is evaluated between delegation
// nodes, so per-rack Dijkstra replaces the paper's Floyd–Warshall with
// identical results at far lower cost on large fabrics.
//
// Refresh itself sweeps nothing: it freezes the per-edge transmission
// weights (one pass over the edges) and starts a new table epoch. A
// rack's row is swept on its first query after that, against the frozen
// weights, so only the racks management actually reads — the alerted
// racks and their candidate destinations — pay for a sweep, and a
// bandwidth change after Refresh stays invisible until the next Refresh.
// Physical distance does not depend on bandwidth, so the distance table
// is re-frozen only when the wiring changed (Graph.StructVersion) and its
// rows stay current across bandwidth-only refreshes. Allocation-free
// after warmup.
func (m *Model) Refresh() {
	g := m.cluster.Graph
	if m.dist == nil || g.StructVersion() != m.structVer {
		m.structVer = g.StructVersion()
		m.racks = g.Racks()
		m.dist = topology.DijkstraOnDemand(g, m.racks, topology.DistanceCost, m.dist)
	}
	m.trans = topology.DijkstraOnDemand(g, m.racks, m.transCost, m.trans)
}

// Params returns the model constants.
func (m *Model) Params() Params { return m.params }

// TransmissionCost returns Σ_{e∈P}(δ·T(e) + η·P(e)) along the cheapest
// path between two racks for a VM of the given size. The path is the one
// minimizing the reference-size cost; per-edge terms are re-evaluated at
// the actual size. Returns ErrBandwidthBelowFloor when no feasible path
// exists.
func (m *Model) TransmissionCost(src, dst *dcn.Rack, size float64) (float64, error) {
	if src == dst {
		return 0, nil
	}
	path := m.trans.Path(src.NodeID, dst.NodeID)
	if path == nil {
		return 0, ErrBandwidthBelowFloor
	}
	total := 0.0
	for i := 1; i < len(path); i++ {
		e, ok := m.cluster.Graph.EdgeBetween(path[i-1], path[i])
		if !ok {
			return 0, fmt.Errorf("cost: path uses missing edge %d-%d", path[i-1], path[i])
		}
		if e.Bandwidth <= 0 || e.Bandwidth < m.params.BandwidthFloor {
			return 0, ErrBandwidthBelowFloor
		}
		total += m.params.Delta*(size/e.Bandwidth) + m.params.Eta*(e.Bandwidth/e.Capacity)
	}
	return total, nil
}

// Distance returns the physical-distance metric Σ D(e) between two racks.
func (m *Model) Distance(a, b *dcn.Rack) float64 {
	return m.dist.Dist(a.NodeID, b.NodeID)
}

// DependencyCost returns C_d times the net change in distance between the
// VM and the racks of its dependent peers if it moved from src to dst —
// the realization of the (Σ_{e∈G_r[N_d(v_i)]}D(e) − Σ_{e∈G_r[N_d(v_p)]}D(e))·C_d
// term of Sec. III.C. Moving toward peers yields a negative contribution.
func (m *Model) DependencyCost(vm *dcn.VM, src, dst *dcn.Rack) float64 {
	if src == dst {
		return 0
	}
	total := 0.0
	for _, idx := range m.cluster.Deps.PeerRacks(m.cluster, vm.ID) {
		peer := m.cluster.Racks[idx]
		total += m.dist.Dist(dst.NodeID, peer.NodeID) - m.dist.Dist(src.NodeID, peer.NodeID)
	}
	return m.params.Cd * total
}

// Migration returns the full Eqn. (1) cost of migrating vm to the
// destination host: C_r + dependency cost + transmission cost. Migrating
// within the same host costs zero.
func (m *Model) Migration(vm *dcn.VM, dst *dcn.Host) (float64, error) {
	srcHost := vm.Host()
	if srcHost == nil {
		return 0, errors.New("cost: VM is not placed")
	}
	if srcHost == dst {
		return 0, nil
	}
	src, dstRack := srcHost.Rack(), dst.Rack()
	trans, err := m.TransmissionCost(src, dstRack, vm.Capacity)
	if err != nil {
		return 0, err
	}
	return m.params.Cr + m.DependencyCost(vm, src, dstRack) + trans, nil
}

// RackPairCost returns the collapsed pair cost G(v_i, v_p) + C_r for a
// reference-size VM — the inter-rack metric handed to the k-median
// reduction of Sec. V.A. Same-rack cost is 0.
func (m *Model) RackPairCost(a, b *dcn.Rack) float64 {
	if a == b {
		return 0
	}
	d := m.trans.Dist(a.NodeID, b.NodeID)
	if d == topology.Inf {
		return topology.Inf
	}
	return m.params.Cr + d
}

// RackCostMatrix materializes the full rack-pair cost matrix, indexed by
// rack Index. Used by the k-median experiments.
func (m *Model) RackCostMatrix() [][]float64 {
	racks := m.cluster.Racks
	out := make([][]float64, len(racks))
	for i, a := range racks {
		out[i] = make([]float64, len(racks))
		for j, b := range racks {
			out[i][j] = m.RackPairCost(a, b)
		}
	}
	return out
}
