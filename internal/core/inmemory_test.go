package core

import (
	"math"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// residentOpts is ResidentOptions(g) with the given worker count.
func residentOpts(t *testing.T, g *tile.Graph, threads int) Options {
	t.Helper()
	opts := ResidentOptions(g)
	if opts.MemoryBytes < g.DataBytes()+2*opts.SegmentSize {
		t.Fatalf("resident budget %d cannot pool %d data bytes beside two %d-byte streaming segments",
			opts.MemoryBytes, g.DataBytes(), opts.SegmentSize)
	}
	opts.Threads = threads
	return opts
}

// In-memory execution is the one engine under a resident budget; its
// results must match the references exactly like an out-of-core run.
func TestInMemoryMatchesDiskEngine(t *testing.T) {
	el := kron(t, 10, 8, 31)
	g := convert(t, el, 6, 4)

	b := algo.NewBFS(0)
	st := runAlg(t, g, residentOpts(t, g, 4), b)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if st.TilesProcessed == 0 || st.Elapsed <= 0 {
		t.Fatalf("stats = %+v", st)
	}

	p := algo.NewPageRank(8)
	opts := residentOpts(t, g, 4)
	opts.MaxIterations = 8
	pst := runAlg(t, g, opts, p)
	wantR := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(8))
	for v, r := range p.Ranks() {
		if math.Abs(r-wantR[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, r, wantR[v])
		}
	}
	// Every tile is pooled after the first iteration: later iterations
	// rewind over the pool instead of fetching again.
	if pst.TilesFetched == 0 || pst.TilesFromCache < 2*pst.TilesFetched {
		t.Fatalf("resident pagerank fetched %d tiles and rewound %d; want every tile pooled after iteration 1",
			pst.TilesFetched, pst.TilesFromCache)
	}

	w := algo.NewWCC()
	runAlg(t, g, residentOpts(t, g, 1), w)
	wantL := graph.RefWCC(el)
	for v, l := range w.Labels() {
		if l != wantL[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, wantL[v])
		}
	}
}

// Selective iteration still applies under a resident budget — it saves
// compute instead of I/O there.
func TestInMemorySelectiveSkips(t *testing.T) {
	n := uint32(512)
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	g := convert(t, el, 5, 2)
	st := runAlg(t, g, residentOpts(t, g, 2), algo.NewBFS(0))
	if st.TilesSkipped == 0 {
		t.Fatal("in-memory run ignored selective iteration")
	}
}
