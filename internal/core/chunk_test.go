package core

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

// chunkSizes spans the interesting regimes: chunking disabled (the
// per-tile baseline), the pathological one-SNB-tuple chunk, a few odd
// small sizes (7 rounds down to 4), and the production default.
var chunkSizes = []int64{ChunkDisabled, 4, 7, 64, 1 << 10, DefaultChunkBytes}

// Chunked runs must be bit-identical to the sequential in-memory
// reference for BFS and WCC regardless of the chunk size, including
// one-tuple chunks where every edge is its own work item.
func TestChunkedEquivalenceBFSWCC(t *testing.T) {
	el := kron(t, 11, 8, 21)
	g := convert(t, el, 6, 4)
	csr := graph.NewCSR(el, false)
	wantDepth := graph.RefBFS(csr, 0)
	wantWCC := graph.RefWCC(el)
	for _, cb := range chunkSizes {
		opts := smallOpts()
		opts.ChunkBytes = cb
		b := algo.NewBFS(0)
		st := runAlg(t, g, opts, b)
		for v, d := range b.Depths() {
			if d != wantDepth[v] {
				t.Fatalf("chunk=%d: depth[%d] = %d, want %d", cb, v, d, wantDepth[v])
			}
		}
		if cb > 0 && cb < 64 && st.Chunks <= st.TilesProcessed {
			t.Fatalf("chunk=%d: Chunks = %d not above TilesProcessed = %d", cb, st.Chunks, st.TilesProcessed)
		}
		w := algo.NewWCC()
		runAlg(t, g, opts, w)
		for v, l := range w.Labels() {
			if l != uint32(wantWCC[v]) {
				t.Fatalf("chunk=%d: label[%d] = %d, want %d", cb, v, l, wantWCC[v])
			}
		}
	}
}

// Every run takes the chunked path, including algorithms wrapped by
// embedding algo.Algorithm (as the test wrappers gated and cancelAfter
// do) and the coalesced personal BFS, which runs msbfs: with 64-byte
// chunks each dispatches more chunks than tiles.
func TestWrappedAndCoalescedRunsChunked(t *testing.T) {
	el := kron(t, 10, 8, 25)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.ChunkBytes = 64
	opts.BatchWindow = time.Millisecond
	_, s := newSched(t, g, opts)
	ctx := context.Background()
	wrapped, err := s.Run(ctx, &cancelAfter{Algorithm: algo.NewBFS(0), cancel: func() {}, after: math.MaxInt})
	if err != nil {
		t.Fatal(err)
	}
	_, coalesced, err := s.RunPersonalBFS(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Stats{"wrapped bfs": wrapped, "coalesced personal bfs": coalesced} {
		if st.TilesProcessed == 0 || st.Chunks <= st.TilesProcessed {
			t.Errorf("%s: Chunks = %d, want more than TilesProcessed = %d", name, st.Chunks, st.TilesProcessed)
		}
	}
}

// Chunked PageRank accumulates into per-worker slabs reduced once per
// iteration; the result must stay within 1e-9 of the sequential
// reference for every chunk size.
func TestChunkedEquivalencePageRank(t *testing.T) {
	el := kron(t, 10, 8, 22)
	g := convert(t, el, 6, 4)
	iters := 10
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(iters))
	for _, cb := range chunkSizes {
		opts := smallOpts()
		opts.ChunkBytes = cb
		p := algo.NewPageRank(iters)
		runAlg(t, g, opts, p)
		for v, r := range p.Ranks() {
			if math.Abs(r-want[v]) > 1e-9 {
				t.Fatalf("chunk=%d: rank[%d] = %v, want %v (|Δ| = %g)", cb, v, r, want[v], math.Abs(r-want[v]))
			}
		}
	}
}

// SCC's phase machine with batched change counting must agree with the
// reference on a directed graph.
func TestChunkedEquivalenceSCC(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 6, 23))
	if err != nil {
		t.Fatal(err)
	}
	g, err := convertDirected(t, el)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefSCC(el)
	for _, cb := range []int64{ChunkDisabled, 4, 1 << 10} {
		opts := smallOpts()
		opts.ChunkBytes = cb
		s := algo.NewSCC()
		runAlg(t, g, opts, s)
		for v, l := range s.Labels() {
			if l != uint32(want[v]) {
				t.Fatalf("chunk=%d: scc[%d] = %d, want %d", cb, v, l, want[v])
			}
		}
	}
}

// The per-run worker accounting must be self-consistent: one entry per
// worker, chunk counts summing to the dispatched total, and an imbalance
// reading at least 1 whenever the run did measurable compute.
func TestChunkedWorkerStats(t *testing.T) {
	el := kron(t, 11, 8, 24)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.ChunkBytes = 256 // force many chunks per dense tile
	p := algo.NewPageRank(5)
	st := runAlg(t, g, opts, p)
	if len(st.WorkerBusy) != opts.Threads || len(st.WorkerChunks) != opts.Threads {
		t.Fatalf("worker stats lengths %d/%d, want %d", len(st.WorkerBusy), len(st.WorkerChunks), opts.Threads)
	}
	var sum int64
	for _, c := range st.WorkerChunks {
		sum += c
	}
	if sum != st.Chunks {
		t.Fatalf("sum(WorkerChunks) = %d, want Chunks = %d", sum, st.Chunks)
	}
	if st.Chunks <= st.TilesProcessed {
		t.Fatalf("Chunks = %d, want more than TilesProcessed = %d at 256-byte chunks", st.Chunks, st.TilesProcessed)
	}
	if st.Imbalance < 1 {
		t.Fatalf("Imbalance = %v, want >= 1", st.Imbalance)
	}
	// A second run on the same engine-free helper must not inherit the
	// first run's busy time: the deltas are per run.
	st2 := runAlg(t, g, opts, algo.NewPageRank(1))
	var busy1, busy2 int64
	for i := range st.WorkerBusy {
		busy1 += int64(st.WorkerBusy[i])
	}
	for i := range st2.WorkerBusy {
		busy2 += int64(st2.WorkerBusy[i])
	}
	if busy2 > busy1 {
		t.Logf("note: 1-iteration run busier than 5-iteration run (%v vs %v)", busy2, busy1)
	}
}
