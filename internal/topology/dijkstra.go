package topology

import (
	"sync"
	"sync/atomic"

	"sheriff/internal/pool"
)

// EdgeCost maps a link to a scalar cost for shortest-path purposes. The
// migration transform of Sec. V.A.2 uses the per-edge transmission cost
// δ·T(e) + η·P(e); plain distance D(e) is another common choice.
type EdgeCost func(Edge) float64

// DistanceCost returns D(e), the physical distance.
func DistanceCost(e Edge) float64 { return e.Distance }

// MultiSource holds shortest paths from a designated set of source nodes
// to every node, computed by Dijkstra per source over the graph's CSR
// view. For the migration cost model only rack-to-rack paths matter, so
// running |racks| Dijkstras is far cheaper than cubic Floyd–Warshall on
// large Fat-Trees (the Sec. V.A collapse only needs G(v_i, v_p) between
// racks). Rows are source-rank indexed: rows[i] belongs to sources[i], and
// rank maps node ID → row, so lookups never touch a map.
//
// Rows are demand-driven. Preparing a table freezes the per-edge weight
// vector and the CSR it indexes, and bumps an epoch; a row is swept on
// its first Dist/Path query of that epoch, against the frozen weights, so
// a graph mutation between the preparation and the query cannot leak into
// the row and results are bit-identical to an eager sweep. Queries may
// run concurrently: each row carries an atomic epoch stamp, the fill is
// double-checked under the row's lock, and a current row is read without
// locking. Preparation must not run concurrently with queries.
type MultiSource struct {
	n       int
	sources []int32
	rank    []int32 // node ID → row index, -1 when not a source
	rows    []msRow

	c       *csr    // CSR the frozen weights index
	weights []wEdge // interleaved (cost, dst) vector frozen at preparation
	epoch   uint64  // bumped by every preparation; rows stamped older are stale
	sweeps  atomic.Int64

	scratchMu sync.Mutex
	scratch   []*sweepScratch // free list, one entry per concurrent fill
}

// msRow is one source's shortest-path tree and the epoch it was swept in.
type msRow struct {
	stamp atomic.Uint64
	mu    sync.Mutex
	tree  []treeNode
}

// DijkstraFrom computes shortest paths from each source under the edge
// cost. Costs must be non-negative; Inf-cost edges are skipped. The cost
// closure is evaluated once per directed edge (not once per relaxation)
// on the calling goroutine to fill a flat weight vector. Every row is
// swept before returning, on the shared worker pool.
func DijkstraFrom(g *Graph, sources []int, cost EdgeCost) *MultiSource {
	return DijkstraFromInto(g, sources, cost, nil)
}

// DijkstraFromInto is DijkstraFrom reusing a previous result's storage.
// When prev's rows fit the graph and source count, the sweep is
// allocation-free after warmup; prev's contents are overwritten and the
// returned value is prev itself. Pass nil to allocate fresh tables.
func DijkstraFromInto(g *Graph, sources []int, cost EdgeCost, prev *MultiSource) *MultiSource {
	ms := DijkstraOnDemand(g, sources, cost, prev)
	s := len(ms.sources)
	if s == 1 {
		ms.fill(0) // inline: the steady single-source path stays allocation-free
		return ms
	}
	pool.Shared().ForEach(s, func(i int) { ms.fill(int32(i)) })
	return ms
}

// DijkstraOnDemand is DijkstraFromInto without the sweeps: it freezes the
// edge weights (one EdgeCost call per directed edge) and leaves every row
// to be swept by its first query. A caller that reads a few rows of a
// large source set pays for those rows only.
func DijkstraOnDemand(g *Graph, sources []int, cost EdgeCost, prev *MultiSource) *MultiSource {
	c := g.ensureCSR()
	ms := prev
	if ms == nil {
		ms = &MultiSource{}
	}
	ms.reset(g, sources)
	ms.c = c
	ms.weights = ensureWEdges(ms.weights, len(c.dstID))
	c.fillWeights(ms.weights, cost)
	ms.epoch++
	return ms
}

// reset points the tables at the new source set, reusing backing arrays.
func (ms *MultiSource) reset(g *Graph, sources []int) {
	n := g.NumNodes()
	if len(ms.rank) >= n {
		// Clear only the previous sources' entries; the rest is still -1.
		for _, s := range ms.sources {
			if int(s) < len(ms.rank) {
				ms.rank[s] = -1
			}
		}
		ms.rank = ms.rank[:n]
	} else {
		ms.rank = make([]int32, n)
		for i := range ms.rank {
			ms.rank[i] = -1
		}
	}
	ms.n = n
	ms.sources = ms.sources[:0]
	for _, s := range sources {
		ms.sources = append(ms.sources, int32(s))
	}
	for i, s := range ms.sources {
		ms.rank[s] = int32(i)
	}
	if cap(ms.rows) >= len(sources) {
		ms.rows = ms.rows[:len(sources)]
	} else {
		ms.rows = make([]msRow, len(sources))
	}
}

// fill sweeps row r unless it is already current. Concurrent callers for
// the same row serialize on its lock and the loser finds it stamped.
func (ms *MultiSource) fill(r int32) {
	row := &ms.rows[r]
	row.mu.Lock()
	defer row.mu.Unlock()
	if row.stamp.Load() == ms.epoch {
		return
	}
	sc := ms.getScratch()
	row.tree = ensureTreeNodes(row.tree, ms.n)
	sc.sweep(ms.c, ms.sources[r], ms.weights, row.tree)
	ms.putScratch(sc)
	ms.sweeps.Add(1)
	row.stamp.Store(ms.epoch)
}

func (ms *MultiSource) getScratch() *sweepScratch {
	ms.scratchMu.Lock()
	var sc *sweepScratch
	if k := len(ms.scratch); k > 0 {
		sc = ms.scratch[k-1]
		ms.scratch = ms.scratch[:k-1]
	} else {
		sc = &sweepScratch{}
	}
	ms.scratchMu.Unlock()
	sc.ensure(ms.n, len(ms.c.dstID))
	return sc
}

func (ms *MultiSource) putScratch(sc *sweepScratch) {
	ms.scratchMu.Lock()
	ms.scratch = append(ms.scratch, sc)
	ms.scratchMu.Unlock()
}

// Sweeps returns the number of single-source sweeps run over the table's
// lifetime: one per row per preparation at most, and only for rows read.
func (ms *MultiSource) Sweeps() int64 { return ms.sweeps.Load() }

func ensureWEdges(s []wEdge, n int) []wEdge {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]wEdge, n)
}

func ensureTreeNodes(s []treeNode, n int) []treeNode {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]treeNode, n)
}

// row returns the shortest-path-tree row for a source node, sweeping it
// first if it is stale, or nil when the node was not in the source set.
func (m *MultiSource) row(src int) []treeNode {
	if src < 0 || src >= len(m.rank) {
		return nil
	}
	r := m.rank[src]
	if r < 0 {
		return nil
	}
	row := &m.rows[r]
	if row.stamp.Load() != m.epoch {
		m.fill(r)
	}
	return row.tree
}

// Dist returns the minimal cost from a source node to any node. It
// returns Inf if src was not in the source set or dst is unreachable.
func (m *MultiSource) Dist(src, dst int) float64 {
	t := m.row(src)
	if t == nil || dst < 0 || dst >= m.n {
		return Inf
	}
	return t[dst].d
}

// Path reconstructs one minimal path src → … → dst (inclusive), or nil
// when unreachable or src is not a source.
func (m *MultiSource) Path(src, dst int) []int {
	t := m.row(src)
	if t == nil || dst < 0 || dst >= m.n {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	if t[dst].p < 0 {
		return nil
	}
	hops := 0
	cur := dst
	for cur != -1 && cur != src {
		hops++
		cur = int(t[cur].p)
	}
	if cur != src {
		return nil
	}
	out := make([]int, hops+1)
	i := hops
	for cur := dst; ; cur = int(t[cur].p) {
		out[i] = cur
		if cur == src {
			break
		}
		i--
	}
	return out
}
