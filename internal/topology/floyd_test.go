package topology

// This file holds the cubic Floyd–Warshall all-pairs oracle that the
// Dijkstra sweeps are checked against. It is test-only.

// AllPairs holds the Floyd–Warshall result: the minimal cost between every
// node pair and the next-hop matrix for path reconstruction.
type AllPairs struct {
	n    int
	dist []float64
	next []int32
}

// FloydWarshall computes all-pairs shortest paths over the graph under the
// given edge cost, as prescribed for collapsing g(v_i, v_p, e_ip) into
// G(v_i, v_p) (Sec. V.A.2). Time complexity O(n³).
func FloydWarshall(g *Graph, cost EdgeCost) *AllPairs {
	n := g.NumNodes()
	ap := &AllPairs{
		n:    n,
		dist: make([]float64, n*n),
		next: make([]int32, n*n),
	}
	for i := range ap.dist {
		ap.dist[i] = Inf
		ap.next[i] = -1
	}
	for v := 0; v < n; v++ {
		ap.dist[v*n+v] = 0
		ap.next[v*n+v] = int32(v)
		for _, e := range g.Edges(v) {
			c := cost(e)
			if c < ap.dist[v*n+e.To] {
				ap.dist[v*n+e.To] = c
				ap.next[v*n+e.To] = int32(e.To)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := ap.dist[i*n+k]
			if dik == Inf {
				continue
			}
			rowK := ap.dist[k*n : k*n+n]
			rowI := ap.dist[i*n : i*n+n]
			for j := 0; j < n; j++ {
				if d := dik + rowK[j]; d < rowI[j] {
					rowI[j] = d
					ap.next[i*n+j] = ap.next[i*n+k]
				}
			}
		}
	}
	return ap
}

// Dist returns the minimal cost between two nodes (Inf if disconnected).
func (ap *AllPairs) Dist(a, b int) float64 { return ap.dist[a*ap.n+b] }

// Path reconstructs one minimal-cost path a → … → b, inclusive of both
// endpoints. It returns nil if the nodes are disconnected.
func (ap *AllPairs) Path(a, b int) []int {
	if a < 0 || b < 0 || a >= ap.n || b >= ap.n || ap.next[a*ap.n+b] < 0 {
		return nil
	}
	path := []int{a}
	for a != b {
		a = int(ap.next[a*ap.n+b])
		path = append(path, a)
	}
	return path
}

// NumNodes returns the number of nodes the result covers.
func (ap *AllPairs) NumNodes() int { return ap.n }
