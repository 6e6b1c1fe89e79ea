package flow

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sheriff/internal/topology"
)

// equivGraphs names the fabrics the dense load table is checked on. Each
// builder returns a fresh graph, so the network under test and the
// map-keyed oracle mutate separate copies (UpdateGraphBandwidth writes
// into its graph).
var equivGraphs = []struct {
	name  string
	build func(t *testing.T) *topology.Graph
}{
	{"fattree-k4", func(t *testing.T) *topology.Graph { return fatTree(t, 4).Graph }},
	{"bcube-n3", func(t *testing.T) *topology.Graph {
		bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 3})
		if err != nil {
			t.Fatal(err)
		}
		return bc.Graph
	}},
	{"leafspine-12x4", func(t *testing.T) *topology.Graph {
		ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 12, Spines: 4})
		if err != nil {
			t.Fatal(err)
		}
		return ls.Graph
	}},
	{"parallel", func(t *testing.T) *topology.Graph { return parallelGraph(t) }},
}

// parallelGraph is a hand-built fabric with parallel links of differing
// capacity and distance, installed from both ends, so the canonical-slot
// rule (first edge between a pair carries the pair's load) is exercised.
func parallelGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	r0 := g.AddNode(topology.Rack, "r0", 0, 0)
	r1 := g.AddNode(topology.Rack, "r1", 0, 0)
	r2 := g.AddNode(topology.Rack, "r2", 0, 0)
	s0 := g.AddNode(topology.Switch, "s0", 0, 1)
	s1 := g.AddNode(topology.Switch, "s1", 0, 1)
	s2 := g.AddNode(topology.Switch, "s2", 0, 1)
	for _, l := range []struct {
		a, b     int
		cap, dis float64
	}{
		{r0, s0, 1, 1}, {s0, r0, 2, 1}, {r1, s1, 1, 1}, {r2, s2, 1, 1},
		{s0, s1, 1, 2}, {s1, s0, 3, 1}, {s1, s2, 1, 1}, {s0, s2, 2, 3},
		{r0, s2, 0.5, 4}, {s2, r1, 1, 3},
	} {
		if err := g.AddLink(l.a, l.b, l.cap, l.dis); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestNetworkMatchesReference drives the dense network and the map-keyed
// oracle through the same random sequences of admissions, rate changes,
// removals, reroutes, hot-switch reroutes and bandwidth write-backs, and
// requires bit-identical loads, routes, hot-switch sets, graph bandwidths
// and snapshot JSON after every operation; every 25 operations the
// oracle's snapshot is restored into a fresh dense network. On the
// parallel-link fabric links are added mid-run, so the tables must grow
// with the graph.
func TestNetworkMatchesReference(t *testing.T) {
	for _, tc := range equivGraphs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				g, gRef := tc.build(t), tc.build(t)
				n, ref := NewNetwork(g), newReferenceNetwork(gRef)
				rng := rand.New(rand.NewSource(seed))
				racks, switches := g.Racks(), g.Switches()
				rate := func() float64 {
					if rng.Intn(8) == 0 {
						return 1e-13 // below the zeroing floor
					}
					return 0.05 + rng.Float64()*0.6
				}
				live := func() []int {
					var ids []int
					for _, f := range ref.Flows() {
						ids = append(ids, f.ID)
					}
					return ids
				}
				restores := 0
				for op := 0; op < 400; op++ {
					if tc.name == "parallel" && op == 200 {
						for _, gg := range []*topology.Graph{g, gRef} {
							x := gg.AddNode(topology.Switch, "x", 0, 1)
							for _, l := range [][2]int{{racks[0], x}, {x, racks[1]}, {racks[0], 3}} {
								if err := gg.AddLink(l[0], l[1], 1.5, 0.5); err != nil {
									t.Fatal(err)
								}
							}
						}
						switches = g.Switches()
					}
					ids := live()
					desc := ""
					switch k := rng.Intn(10); {
					case k < 4 || len(ids) == 0:
						src, dst := racks[rng.Intn(len(racks))], racks[rng.Intn(len(racks))]
						r, ds := rate(), rng.Intn(4) == 0
						f, err := n.AddFlow(src, dst, r, ds)
						fr, errRef := ref.AddFlow(src, dst, r, ds)
						desc = fmt.Sprintf("AddFlow(%d, %d, %v)", src, dst, r)
						if (err == nil) != (errRef == nil) || (f != nil && f.ID != fr.ID) {
							t.Fatalf("op %d %s: got (%v, %v), oracle (%v, %v)", op, desc, f, err, fr, errRef)
						}
					case k < 6:
						id, r := ids[rng.Intn(len(ids))], rate()
						desc = fmt.Sprintf("SetRate(%d, %v)", id, r)
						err, errRef := n.SetRate(n.Flow(id), r), ref.SetRate(ref.Flow(id), r)
						if (err == nil) != (errRef == nil) {
							t.Fatalf("op %d %s: got %v, oracle %v", op, desc, err, errRef)
						}
					case k == 6:
						id := ids[rng.Intn(len(ids))]
						desc = fmt.Sprintf("RemoveFlow(%d)", id)
						n.RemoveFlow(id)
						ref.RemoveFlow(id)
					case k == 7:
						id := ids[rng.Intn(len(ids))]
						avoid := map[int]bool{switches[rng.Intn(len(switches))]: true, switches[rng.Intn(len(switches))]: true}
						desc = fmt.Sprintf("Reroute(%d, %v)", id, avoid)
						err, errRef := n.Reroute(n.Flow(id), avoid), ref.Reroute(ref.Flow(id), avoid)
						if (err == nil) != (errRef == nil) {
							t.Fatalf("op %d %s: got %v, oracle %v", op, desc, err, errRef)
						}
					case k == 8:
						hot := switches[rng.Intn(len(switches))]
						if hs := ref.HotSwitches(0.5); len(hs) > 0 {
							hot = hs[rng.Intn(len(hs))]
						}
						target := 0.1 + rng.Float64()*0.8
						desc = fmt.Sprintf("RerouteAroundHot(%d, %v)", hot, target)
						moved, movedRef := flowIDs(n.RerouteAroundHot(hot, target)), flowIDs(ref.RerouteAroundHot(hot, target))
						if !slices.Equal(moved, movedRef) {
							t.Fatalf("op %d %s: moved %v, oracle %v", op, desc, moved, movedRef)
						}
					default:
						desc = "UpdateGraphBandwidth"
						n.UpdateGraphBandwidth()
						ref.UpdateGraphBandwidth()
					}
					at := fmt.Sprintf("op %d %s", op, desc)
					compareNetworks(t, at, n, ref, switches)
					if op%25 == 24 && checkRestore(t, at, ref, g, gRef) {
						restores++
					}
				}
				if restores == 0 {
					t.Fatal("no oracle snapshot restored cleanly; the restore check never ran")
				}
			})
		}
	}
}

// checkRestore restores the oracle's snapshot into a fresh dense network
// and a fresh oracle over the same graphs. Both must accept or reject it
// alike; when accepted, the dense network must re-serialize it byte for
// byte. It reports whether the snapshot was accepted.
func checkRestore(t *testing.T, at string, ref *referenceNetwork, g, gRef *topology.Graph) bool {
	t.Helper()
	snap := ref.Snapshot()
	dense, oracle := NewNetwork(g), newReferenceNetwork(gRef)
	err, errRef := dense.Restore(snap), oracle.Restore(snap)
	if fmt.Sprint(err) != fmt.Sprint(errRef) {
		t.Fatalf("%s: restore of oracle snapshot: %v, oracle %v", at, err, errRef)
	}
	if err != nil {
		return false
	}
	if a, b := snapJSON(t, dense.Snapshot()), snapJSON(t, snap); a != b {
		t.Fatalf("%s: restored oracle snapshot re-serializes differently:\n%s\n%s", at, a, b)
	}
	return true
}

func flowIDs(fs []*Flow) []int {
	var out []int
	for _, f := range fs {
		out = append(out, f.ID)
	}
	return out
}

func snapJSON(t *testing.T, s *Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// compareNetworks requires every observable of the dense network to equal
// the oracle's exactly.
func compareNetworks(t *testing.T, at string, n *Network, ref *referenceNetwork, switches []int) {
	t.Helper()
	g, gRef := n.g, ref.g
	for a := 0; a < g.NumNodes(); a++ {
		for i, e := range g.Edges(a) {
			if got, want := n.LinkLoad(a, e.To), ref.LinkLoad(a, e.To); got != want {
				t.Fatalf("%s: LinkLoad(%d, %d) = %v, oracle %v", at, a, e.To, got, want)
			}
			if got, want := n.LinkUtilization(a, e.To), ref.LinkUtilization(a, e.To); got != want {
				t.Fatalf("%s: LinkUtilization(%d, %d) = %v, oracle %v", at, a, e.To, got, want)
			}
			if got, want := e.Bandwidth, gRef.Edges(a)[i].Bandwidth; got != want {
				t.Fatalf("%s: bandwidth of edge %d→%d (#%d) = %v, oracle %v", at, a, e.To, i, got, want)
			}
		}
		if got, want := n.OutUtilization(a), ref.outUtilization(a); got != want {
			t.Fatalf("%s: OutUtilization(%d) = %v, oracle %v", at, a, got, want)
		}
	}
	for _, sw := range switches {
		if got, want := n.SwitchUtilization(sw), ref.SwitchUtilization(sw); got != want {
			t.Fatalf("%s: SwitchUtilization(%d) = %v, oracle %v", at, sw, got, want)
		}
	}
	for _, th := range []float64{0.3, 0.6, 0.9} {
		if got, want := n.HotSwitches(th), ref.HotSwitches(th); !slices.Equal(got, want) {
			t.Fatalf("%s: HotSwitches(%v) = %v, oracle %v", at, th, got, want)
		}
	}
	flows, flowsRef := n.Flows(), ref.Flows()
	if len(flows) != len(flowsRef) {
		t.Fatalf("%s: %d flows, oracle %d", at, len(flows), len(flowsRef))
	}
	for i, f := range flows {
		fr := flowsRef[i]
		if f.ID != fr.ID || f.Rate != fr.Rate || !slices.Equal(f.Path(), fr.Path()) {
			t.Fatalf("%s: flow %d rate %v path %v, oracle flow %d rate %v path %v", at, f.ID, f.Rate, f.Path(), fr.ID, fr.Rate, fr.Path())
		}
	}
	if a, b := snapJSON(t, n.Snapshot()), snapJSON(t, ref.Snapshot()); a != b {
		t.Fatalf("%s: snapshot JSON differs:\n%s\n%s", at, a, b)
	}
}
