package cost

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/pool"
	"sheriff/internal/topology"
)

// Demand-driven rows (frozen weights, epoch-stamped lazy sweeps, distance
// table carried across bandwidth-only refreshes) must be bit-identical to
// the seed's eager refresh, however and from however many goroutines the
// rows are queried.

// refreshNaive is the seed's Refresh, kept as the "before" side of
// BENCH_route.json and as the eager ground truth of the equivalence
// tests: two independent full sweeps into fresh tables, run concurrently
// on the shared pool.
func (m *Model) refreshNaive() {
	racks := m.cluster.Graph.Racks()
	var trans, dist *topology.MultiSource
	pool.Shared().Run(
		func() {
			trans = topology.DijkstraFrom(m.cluster.Graph, racks, m.transCost)
		},
		func() {
			dist = topology.DijkstraFrom(m.cluster.Graph, racks, topology.DistanceCost)
		},
	)
	m.trans, m.dist = trans, dist
	m.racks = racks
	m.structVer = m.cluster.Graph.StructVersion()
}

func assertModelsAgree(t *testing.T, c *dcn.Cluster, fused, naive *Model, label string) {
	t.Helper()
	for _, a := range c.Racks {
		for _, b := range c.Racks {
			gf, gn := fused.RackPairCost(a, b), naive.RackPairCost(a, b)
			if gf != gn && !(math.IsInf(gf, 1) && math.IsInf(gn, 1)) {
				t.Fatalf("%s: RackPairCost(%d,%d) = %v, naive %v", label, a.Index, b.Index, gf, gn)
			}
			df, dn := fused.Distance(a, b), naive.Distance(a, b)
			if df != dn && !(math.IsInf(df, 1) && math.IsInf(dn, 1)) {
				t.Fatalf("%s: Distance(%d,%d) = %v, naive %v", label, a.Index, b.Index, df, dn)
			}
			tf, ef := fused.TransmissionCost(a, b, 25)
			tn, en := naive.TransmissionCost(a, b, 25)
			if (ef == nil) != (en == nil) || tf != tn {
				t.Fatalf("%s: TransmissionCost(%d,%d) = %v/%v, naive %v/%v", label, a.Index, b.Index, tf, ef, tn, en)
			}
		}
	}
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameRows compares every rack-pair Dist (==) and Path of two tables,
// reading got in the given pair order.
func sameRows(got, want *topology.MultiSource, pairs [][2]int) (string, bool) {
	for _, p := range pairs {
		if g, w := got.Dist(p[0], p[1]), want.Dist(p[0], p[1]); g != w {
			return "Dist", false
		}
		if !equalPath(got.Path(p[0], p[1]), want.Path(p[0], p[1])) {
			return "Path", false
		}
	}
	return "", true
}

func fatTreeCluster(t *testing.T, pods int) *dcn.Cluster {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func leafSpineCluster(t *testing.T, leaves int) *dcn.Cluster {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: leaves})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dcn.NewCluster(ls.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// degrade sets random bandwidths on random links; the same seed gives the
// same mutation on identically built graphs.
func degrade(g *topology.Graph, seed int64, n int) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		es := g.Edges(r.Intn(g.NumNodes()))
		if len(es) == 0 {
			continue
		}
		e := es[r.Intn(len(es))]
		g.SetBandwidth(e.From, e.To, e.Capacity*float64(r.Intn(5))/4)
	}
}

func TestDemandRowsMatchEagerRefresh(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *dcn.Cluster
	}{
		{"fattree", func(t *testing.T) *dcn.Cluster { return fatTreeCluster(t, 6) }},
		{"leafspine", func(t *testing.T) *dcn.Cluster { return leafSpineCluster(t, 24) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, ce := tc.build(t), tc.build(t)
			lazy, eager := testModel(t, cl), testModel(t, ce)
			racks := cl.Graph.Racks()
			var pairs [][2]int
			for _, a := range racks {
				for _, b := range racks {
					pairs = append(pairs, [2]int{a, b})
				}
			}
			rng := rand.New(rand.NewSource(11))
			for round := 0; round < 4; round++ {
				seed := rng.Int63()
				degrade(cl.Graph, seed, 30)
				degrade(ce.Graph, seed, 30)
				lazy.Refresh()
				eager.refreshNaive()

				// Several goroutines race to fill the same rows, each in
				// its own random order.
				var wg sync.WaitGroup
				errs := make(chan string, 8) // at most two sends per goroutine
				for w := 0; w < 4; w++ {
					order := append([][2]int(nil), pairs...)
					r := rand.New(rand.NewSource(seed + int64(w)))
					r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					wg.Add(1)
					go func() {
						defer wg.Done()
						if what, ok := sameRows(lazy.trans, eager.trans, order); !ok {
							errs <- "transmission " + what
						}
						if what, ok := sameRows(lazy.dist, eager.dist, order); !ok {
							errs <- "distance " + what
						}
					}()
				}
				wg.Wait()
				close(errs)
				for e := range errs {
					t.Fatalf("round %d: %s diverges from the eager refresh", round, e)
				}
				assertModelsAgree(t, cl, lazy, eager, tc.name)
			}
		})
	}
}

// TestRefreshFreezesWeights: rows not yet queried when the graph changes
// after Refresh still answer for the link state Refresh saw.
func TestRefreshFreezesWeights(t *testing.T) {
	c := fatTreeCluster(t, 4)
	m := testModel(t, c)
	g := c.Graph
	degrade(g, 3, 20)
	m.Refresh()
	racks := g.Racks()
	wantTrans := topology.DijkstraFrom(g, racks, m.transCost)
	wantDist := topology.DijkstraFrom(g, racks, topology.DistanceCost)

	// Cut every link of the first rack and splice a shortcut: neither may
	// reach a row swept before the next Refresh.
	for _, e := range g.Edges(racks[0]) {
		g.SetBandwidth(e.From, e.To, 0)
	}
	if err := g.AddLink(racks[0], racks[len(racks)-1], 5, 0.5); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for _, a := range racks {
		for _, b := range racks {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	if what, ok := sameRows(m.trans, wantTrans, pairs); !ok {
		t.Fatalf("transmission %s changed by a mutation after Refresh", what)
	}
	if what, ok := sameRows(m.dist, wantDist, pairs); !ok {
		t.Fatalf("distance %s changed by a mutation after Refresh", what)
	}
	m.Refresh()
	if got := m.Distance(c.Racks[0], c.Racks[len(c.Racks)-1]); got != 0.5 {
		t.Fatalf("the next Refresh does not see the new link: distance %v", got)
	}
}

// TestRowsSweptOnDemand: after a Refresh, querying k distinct racks runs
// exactly k transmission sweeps, and distance rows survive bandwidth-only
// refreshes.
func TestRowsSweptOnDemand(t *testing.T) {
	c := fatTreeCluster(t, 6)
	m := testModel(t, c)
	if m.trans.Sweeps() != 0 || m.dist.Sweeps() != 0 {
		t.Fatalf("New swept %d+%d rows, want none", m.trans.Sweeps(), m.dist.Sweeps())
	}
	const k = 5
	query := func() {
		for round := 0; round < 2; round++ {
			for _, a := range c.Racks[:k] {
				for _, b := range c.Racks {
					m.RackPairCost(a, b)
					m.Distance(a, b)
				}
			}
		}
	}
	query()
	if got := m.trans.Sweeps(); got != k {
		t.Fatalf("%d queried racks ran %d transmission sweeps", k, got)
	}
	if got := m.dist.Sweeps(); got != k {
		t.Fatalf("%d queried racks ran %d distance sweeps", k, got)
	}
	degrade(c.Graph, 5, 10)
	m.Refresh()
	query()
	if got := m.trans.Sweeps(); got != 2*k {
		t.Fatalf("after a second Refresh: %d transmission sweeps, want %d", got, 2*k)
	}
	if got := m.dist.Sweeps(); got != k {
		t.Fatalf("bandwidth-only Refresh re-swept distance rows: %d sweeps, want %d", got, k)
	}
}

// TestRefreshAndRowQueryZeroAlloc is the CI allocation gate of the
// management hot path: a steady Refresh plus the sweep of one row reuse
// the frozen weights, the row and the sweep scratch.
func TestRefreshAndRowQueryZeroAlloc(t *testing.T) {
	c := fatTreeCluster(t, 8)
	m := testModel(t, c)
	a, b := c.Racks[0], c.Racks[len(c.Racks)-1]
	m.RackPairCost(a, b) // warm: row and scratch
	allocs := testing.AllocsPerRun(20, func() {
		m.Refresh()
		m.RackPairCost(a, b)
	})
	if allocs != 0 {
		t.Fatalf("Refresh + one row query allocates %v objects/op, want 0", allocs)
	}
}

// TestRefreshAfterWiringChange exercises the structural-invalidation arm:
// a new link appears after New, and the refresh must pick it up exactly
// like a freshly built model.
func TestRefreshAfterWiringChange(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	g := c.Graph
	// Splice a new link between two existing ToRs: wiring changes, rack
	// set stays, distance table must be rebuilt.
	a, b := c.Racks[0].NodeID, c.Racks[len(c.Racks)-1].NodeID
	if err := g.AddLink(a, b, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	m.Refresh()
	fresh := testModel(t, c)
	assertModelsAgree(t, c, m, fresh, "relinked")
	if got := m.Distance(c.Racks[0], c.Racks[len(c.Racks)-1]); got != 0.5 {
		t.Fatalf("new link not visible to distance table: %v", got)
	}
}

// TestSteadyRefreshReusesTables: a bandwidth-only refresh re-freezes the
// existing tables in place instead of allocating new ones.
func TestSteadyRefreshReusesTables(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	trans, dist := m.trans, m.dist
	m.Refresh()
	m.Refresh()
	if m.trans != trans || m.dist != dist {
		t.Fatal("steady refresh did not reuse the tables")
	}
}
