package dcn

import "slices"

// DependencyGraph is G_d of Sec. II.C: an undirected graph over VM IDs in
// which an edge marks two VMs as interdependent (they communicate and,
// per the conflict-graph reading, must not share a physical host). Each
// VM's peers are kept as an ascending ID slice, so iteration never
// depends on map order and Peers hands them out without copying.
type DependencyGraph struct {
	adj map[int][]int
}

// NewDependencyGraph returns an empty dependency graph.
func NewDependencyGraph() *DependencyGraph {
	return &DependencyGraph{adj: make(map[int][]int)}
}

// AddDependency records that VMs a and b are interdependent. Self-edges
// are ignored.
func (d *DependencyGraph) AddDependency(a, b int) {
	if a == b {
		return
	}
	d.link(a, b)
	d.link(b, a)
}

func (d *DependencyGraph) link(a, b int) {
	peers := d.adj[a]
	if i, found := slices.BinarySearch(peers, b); !found {
		d.adj[a] = slices.Insert(peers, i, b)
	}
}

func (d *DependencyGraph) unlink(a, b int) {
	peers := d.adj[a]
	if i, found := slices.BinarySearch(peers, b); found {
		d.adj[a] = slices.Delete(peers, i, i+1)
	}
}

// RemoveDependency deletes the edge a–b if present.
func (d *DependencyGraph) RemoveDependency(a, b int) {
	d.unlink(a, b)
	d.unlink(b, a)
}

// RemoveVM deletes a VM and all its edges.
func (d *DependencyGraph) RemoveVM(id int) {
	for _, peer := range d.adj[id] {
		d.unlink(peer, id)
	}
	delete(d.adj, id)
}

// Dependent reports whether VMs a and b are interdependent.
func (d *DependencyGraph) Dependent(a, b int) bool {
	_, found := slices.BinarySearch(d.adj[a], b)
	return found
}

// Peers returns the VM IDs dependent on id, in ascending order. The
// returned slice is the graph's own storage; treat it as read-only, and
// do not hold it across a change to the VM's dependencies.
func (d *DependencyGraph) Peers(id int) []int { return d.adj[id] }

// Degree returns the number of dependencies of the VM.
func (d *DependencyGraph) Degree(id int) int { return len(d.adj[id]) }

// NumEdges returns the number of undirected dependency edges.
func (d *DependencyGraph) NumEdges() int {
	total := 0
	for _, peers := range d.adj {
		total += len(peers)
	}
	return total / 2
}

// PeerRacks returns the distinct rack indices hosting VMs dependent on
// the given VM — the rack-level neighborhood N_d(v_i) used by the
// dependency-cost term of Eqn. (1) — in order of first appearance over
// ascending peer ID, so sums over it are reproducible.
func (d *DependencyGraph) PeerRacks(c *Cluster, vmID int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, peer := range d.adj[vmID] {
		vm := c.VM(peer)
		if vm == nil || vm.Host() == nil {
			continue
		}
		idx := vm.Host().Rack().Index
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}
