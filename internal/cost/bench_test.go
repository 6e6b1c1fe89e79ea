package cost

import (
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// BenchmarkModelRefresh measures the per-round table rebuild the runtime
// pays after every bandwidth change (runtime marks the model stale, the
// next query refreshes). demand is the production path on a step with one
// alerted rack: a steady-state refresh (weights frozen, distance rows kept)
// plus the one transmission row that rack's shim reads; naive is the
// seed's two full fresh sweeps. Record with
//
//	go test -run=^$ -bench ModelRefresh -benchtime=2x -benchmem ./internal/cost/
func BenchmarkModelRefresh(b *testing.B) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 48})
	if err != nil {
		b.Fatal(err)
	}
	c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(c, PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	a, z := c.Racks[0], c.Racks[len(c.Racks)-1]
	b.Run("demand", func(b *testing.B) {
		m.RackPairCost(a, z) // warm row and scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Refresh()
			m.RackPairCost(a, z)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.refreshNaive()
		}
	})
}
