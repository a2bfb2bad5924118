package algo

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/tile"
)

// The test harness runs kernels the way the engine does: every tile split
// into chunks of at most testChunkBytes (mem.TileRef.Chunks, so v3 tiles
// split only at block boundaries), handed to testWorkers goroutines with
// stable worker IDs through ProcessTileChunk.
const (
	testWorkers    = 3
	testChunkBytes = 64
)

// codecs lists the tuple codecs every kernel is checked on.
var codecs = []string{"snb", "raw", "v3"}

// memGraph is a converted graph with every tile's chunks in memory.
type memGraph struct {
	g     *tile.Graph
	ctx   *Context
	tiles []memTile // disk order
}

type memTile struct {
	row, col uint32
	chunks   [][]byte
}

func load(t *testing.T, el *graph.EdgeList, opts tile.ConvertOptions) *memGraph {
	t.Helper()
	g, err := tile.Convert(el, t.TempDir(), "t", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	mg, err := newMemGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

func newMemGraph(g *tile.Graph) (*memGraph, error) {
	mg := &memGraph{g: g, ctx: &Context{
		NumVertices: g.Meta.NumVertices,
		Layout:      g.Layout,
		Directed:    g.Meta.Directed,
		Half:        g.Meta.Half,
		Codec:       g.Meta.TupleCodec(),
		Workers:     testWorkers,
	}}
	if g.Meta.DegreeFormat != "" {
		deg, err := g.Degrees()
		if err != nil {
			return nil, err
		}
		mg.ctx.Degrees = deg
	}
	for i := 0; i < g.Layout.NumTiles(); i++ {
		data, err := g.ReadTile(i, nil)
		if err != nil {
			return nil, err
		}
		c := g.Layout.CoordAt(i)
		ref := mem.TileRef{Codec: mg.ctx.Codec, Data: append([]byte(nil), data...)}
		mg.tiles = append(mg.tiles, memTile{row: c.Row, col: c.Col, chunks: ref.Chunks(testChunkBytes)})
	}
	return mg, nil
}

// eachCodec converts el under every codec in turn and runs fn on each as
// a subtest.
func eachCodec(t *testing.T, el *graph.EdgeList, opts tile.ConvertOptions, fn func(t *testing.T, mg *memGraph)) {
	for _, codec := range codecs {
		t.Run(codec, func(t *testing.T) {
			opts.Codec = codec
			fn(t, load(t, el, opts))
		})
	}
}

// maxChunks reports the most chunks any tile was split into.
func (mg *memGraph) maxChunks() int {
	most := 0
	for _, tl := range mg.tiles {
		most = max(most, len(tl.chunks))
	}
	return most
}

// iterate drives a until convergence: each iteration hands the chunks of
// every tile the kernel asks for to testWorkers goroutines (parallel) or
// to worker 0 in disk order. It returns the iteration count and visited
// tiles, or an error if a fails to initialize or converge.
func (mg *memGraph) iterate(a Algorithm, parallel bool, maxIter int) (iters, visits int, err error) {
	if err := a.Init(mg.ctx); err != nil {
		return 0, 0, err
	}
	for iter := 0; iter < maxIter; iter++ {
		a.BeforeIteration(iter)
		var need []memTile
		for _, tl := range mg.tiles {
			if a.NeedTileThisIter(tl.row, tl.col) {
				need = append(need, tl)
			}
		}
		visits += len(need)
		if parallel {
			work := make(chan func(worker int))
			var wg sync.WaitGroup
			for w := 0; w < testWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for process := range work {
						process(w)
					}
				}()
			}
			for _, tl := range need {
				for _, c := range tl.chunks {
					work <- func(worker int) { a.ProcessTileChunk(worker, tl.row, tl.col, c) }
				}
			}
			close(work)
			wg.Wait()
		} else {
			for _, tl := range need {
				for _, c := range tl.chunks {
					a.ProcessTileChunk(0, tl.row, tl.col, c)
				}
			}
		}
		if a.AfterIteration(iter) {
			return iter + 1, visits, nil
		}
	}
	return maxIter, visits, fmt.Errorf("%s did not converge in %d iterations", a.Name(), maxIter)
}

// run is iterate for tests that expect convergence.
func (mg *memGraph) run(t *testing.T, a Algorithm, parallel bool, maxIter int) int {
	t.Helper()
	iters, _, err := mg.iterate(a, parallel, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	return iters
}

func defaultOpts() tile.ConvertOptions {
	return tile.ConvertOptions{TileBits: 5, GroupQ: 2, Symmetry: true, SNB: true, Degrees: true}
}

func kronEL(t *testing.T, scale uint, ef int, seed uint64) *graph.EdgeList {
	t.Helper()
	el, err := gen.Generate(gen.Graph500Config(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// --- BFS ---

func TestBFSMatchesReferenceUndirected(t *testing.T) {
	el := kronEL(t, 9, 8, 1)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		b := NewBFS(0)
		mg.run(t, b, true, 1000)
		for v, d := range b.Depths() {
			if d != want[v] {
				t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
			}
		}
	})
}

func TestBFSDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		if mg.ctx.Half {
			t.Fatal("directed graph loaded as half")
		}
		b := NewBFS(0)
		mg.run(t, b, true, 1000)
		for v, d := range b.Depths() {
			if d != want[v] {
				t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
			}
		}
	})
}

func TestBFSWithoutSNB(t *testing.T) {
	el := kronEL(t, 8, 8, 3)
	opts := defaultOpts()
	opts.SNB = false
	mg := load(t, el, opts)
	b := NewBFS(0)
	mg.run(t, b, false, 1000)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestBFSRootValidation(t *testing.T) {
	el := kronEL(t, 6, 4, 4)
	mg := load(t, el, defaultOpts())
	b := NewBFS(1 << 30)
	if err := b.Init(mg.ctx); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestBFSSelectiveSkipsTiles(t *testing.T) {
	// A path graph 0-1-2-...-n spread across tiles: in any given
	// iteration only the tiles containing the single frontier vertex are
	// needed.
	n := uint32(128)
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	mg := load(t, el, tile.ConvertOptions{TileBits: 4, GroupQ: 2, Symmetry: true, SNB: true, Degrees: true})
	b := NewBFS(0)
	if err := b.Init(mg.ctx); err != nil {
		t.Fatal(err)
	}
	iters, needed, err := mg.iterate(b, true, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if total := iters * len(mg.tiles); needed >= total/2 {
		t.Fatalf("selective fetch processed %d of %d tile visits; expected a small fraction", needed, total)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

// Every kernel must match its oracle when tiles arrive in several chunks
// on every codec. TileBits 8 puts more than one v3 block (512 tuples)
// into the tiles of these graphs, so v3 tiles split too.
func TestKernelsOnSplitTiles(t *testing.T) {
	opts := defaultOpts()
	opts.TileBits = 8
	el := kronEL(t, 10, 8, 31)
	csr := graph.NewCSR(el, false)
	eachCodec(t, el, opts, func(t *testing.T, mg *memGraph) {
		if mg.maxChunks() < 2 {
			t.Fatal("no tile split into several chunks")
		}
		roots := []uint32{0, 3, 500}
		b, a, ms, w, p := NewBFS(roots[0]), NewAsyncBFS(roots[0]), NewMSBFS(roots), NewWCC(), NewPageRank(10)
		for _, k := range []Algorithm{b, a, ms, w, p} {
			mg.run(t, k, true, 1000)
		}
		sameSlice(t, "bfs", b.Depths(), graph.RefBFS(csr, roots[0]))
		sameSlice(t, "async-bfs", a.Depths(), graph.RefBFS(csr, roots[0]))
		for i, r := range roots {
			sameSlice(t, fmt.Sprintf("msbfs source %d", r), ms.Depth(i), graph.RefBFS(csr, r))
		}
		sameSlice(t, "wcc", w.Labels(), graph.RefWCC(el))
		want := graph.RefPageRank(csr, graph.DefaultPageRank(10))
		for v, r := range p.Ranks() {
			if math.Abs(r-want[v]) > 1e-9 {
				t.Fatalf("pagerank: rank[%d] = %v, want %v", v, r, want[v])
			}
		}
	})
	directed, err := gen.Generate(gen.TwitterLikeConfig(10, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	opts = sccOpts()
	opts.TileBits = 8
	eachCodec(t, directed, opts, func(t *testing.T, mg *memGraph) {
		if mg.maxChunks() < 2 {
			t.Fatal("no tile split into several chunks")
		}
		sameSlice(t, "scc", runSCC(t, mg), graph.RefSCC(directed))
	})
}

// ProcessTileChunk must not allocate on any codec: the decode arrays
// stay on the kernel's stack. Run on an undirected and a directed graph
// (SCC accepts only the latter), with a zero Context.Workers, which means
// one worker.
func TestProcessTileChunkAllocs(t *testing.T) {
	directed, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 34))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
		opts tile.ConvertOptions
	}{{"half", kronEL(t, 9, 8, 33), defaultOpts()}, {"directed", directed, sccOpts()}} {
		t.Run(tc.name, func(t *testing.T) {
			eachCodec(t, tc.el, tc.opts, func(t *testing.T, mg *memGraph) {
				ctx := *mg.ctx
				ctx.Workers = 0
				var dense memTile
				for _, tl := range mg.tiles {
					if len(tl.chunks) > len(dense.chunks) {
						dense = tl
					}
				}
				kernels := []Algorithm{NewBFS(0), NewAsyncBFS(0), NewMSBFS([]uint32{0, 7}), NewWCC(), NewPageRank(3), NewPPR(0, 3)}
				if tc.el.Directed {
					kernels = append(kernels, NewSCC())
				}
				for _, a := range kernels {
					if err := a.Init(&ctx); err != nil {
						t.Fatal(err)
					}
					a.BeforeIteration(0)
					allocs := testing.AllocsPerRun(10, func() {
						for _, c := range dense.chunks {
							a.ProcessTileChunk(0, dense.row, dense.col, c)
						}
					})
					if allocs != 0 {
						t.Errorf("%s: %v allocations per tile", a.Name(), allocs)
					}
				}
			})
		})
	}
}

func sameSlice[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: [%d] = %v, want %v", what, v, got[v], want[v])
		}
	}
}

// --- PageRank ---

func TestPageRankMatchesReference(t *testing.T) {
	el := kronEL(t, 8, 8, 5)
	iters := 15
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(iters))
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		p := NewPageRank(iters)
		if got := mg.run(t, p, true, iters); got != iters {
			t.Fatalf("ran %d iterations, want %d", got, iters)
		}
		for v, r := range p.Ranks() {
			if math.Abs(r-want[v]) > 1e-9 {
				t.Fatalf("rank[%d] = %v, want %v", v, r, want[v])
			}
		}
	})
}

func TestPageRankDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(8, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	iters := 10
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(iters))
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		p := NewPageRank(iters)
		mg.run(t, p, true, iters)
		for v, r := range p.Ranks() {
			if math.Abs(r-want[v]) > 1e-9 {
				t.Fatalf("rank[%d] = %v, want %v", v, r, want[v])
			}
		}
	})
}

func TestPageRankEpsilonStopsEarly(t *testing.T) {
	el := kronEL(t, 8, 8, 7)
	mg := load(t, el, defaultOpts())
	p := NewPageRank(500)
	p.Epsilon = 1e-7
	iters := mg.run(t, p, false, 500)
	if iters >= 500 {
		t.Fatalf("epsilon stop did not trigger (%d iterations)", iters)
	}
	if p.Delta() >= 1e-7 {
		t.Fatalf("final delta %v above epsilon", p.Delta())
	}
}

func TestPageRankRequiresDegrees(t *testing.T) {
	el := kronEL(t, 6, 4, 8)
	opts := defaultOpts()
	opts.Degrees = false
	mg := load(t, el, opts)
	p := NewPageRank(5)
	if err := p.Init(mg.ctx); err == nil {
		t.Fatal("PageRank accepted a graph without degrees")
	}
}

func TestPageRankSumInvariant(t *testing.T) {
	el := kronEL(t, 9, 4, 9)
	mg := load(t, el, defaultOpts())
	p := NewPageRank(8)
	mg.run(t, p, true, 8)
	sum := 0.0
	for _, r := range p.Ranks() {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

// --- WCC ---

func TestWCCMatchesReference(t *testing.T) {
	// A sparse graph with many components.
	el := kronEL(t, 9, 1, 10)
	want := graph.RefWCC(el)
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		w := NewWCC()
		mg.run(t, w, true, 10000)
		for v, l := range w.Labels() {
			if l != want[v] {
				t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
			}
		}
	})
	if graph.ComponentCount(want) < 2 {
		t.Skip("graph unexpectedly fully connected; skew seed")
	}
}

func TestWCCDirectedIsWeak(t *testing.T) {
	// Directed chain a->b<-c: weakly one component.
	el := &graph.EdgeList{NumVertices: 3, Directed: true,
		Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}}}
	mg := load(t, el, tile.ConvertOptions{TileBits: 1, GroupQ: 1, SNB: true, Degrees: true})
	w := NewWCC()
	mg.run(t, w, false, 100)
	for v, l := range w.Labels() {
		if l != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, l)
		}
	}
}

func TestWCCSelectiveConvergesFast(t *testing.T) {
	el := kronEL(t, 10, 2, 11)
	mg := load(t, el, defaultOpts())
	w := NewWCC()
	iters := mg.run(t, w, true, 1000)
	// Min-label propagation over tiles converges in few iterations
	// (the paper: "all CCs are identified in very few iterations").
	if iters > 60 {
		t.Fatalf("WCC took %d iterations", iters)
	}
	want := graph.RefWCC(el)
	for v, l := range w.Labels() {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
}

// --- metadata hooks ---

func TestMetadataBytesPositive(t *testing.T) {
	el := kronEL(t, 8, 4, 12)
	mg := load(t, el, defaultOpts())
	for _, a := range []Algorithm{NewBFS(0), NewPageRank(3), NewWCC()} {
		if err := a.Init(mg.ctx); err != nil {
			t.Fatal(err)
		}
		if a.MetadataBytes() <= 0 {
			t.Fatalf("%s MetadataBytes = %d", a.Name(), a.MetadataBytes())
		}
	}
}

func TestPageRankAlwaysNeedsAllTiles(t *testing.T) {
	el := kronEL(t, 8, 4, 13)
	mg := load(t, el, defaultOpts())
	p := NewPageRank(3)
	if err := p.Init(mg.ctx); err != nil {
		t.Fatal(err)
	}
	if !p.NeedTileThisIter(0, 0) || !p.NeedTileNextIter(3, 1) {
		t.Fatal("PageRank must always need every tile")
	}
}

// Property: BFS equals the reference on random graphs, random roots,
// random tile widths and every codec, with concurrent chunk processing.
func TestQuickBFSEquivalence(t *testing.T) {
	f := func(seed uint64, rawRoot uint16, rawBits uint8) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 4, seed))
		if err != nil {
			return false
		}
		opts := defaultOpts()
		opts.TileBits = uint(rawBits)%4 + 3
		mg, err := quickGraph(t, el, opts, seed)
		if err != nil {
			return false
		}
		defer mg.g.Close()
		root := uint32(rawRoot) % el.NumVertices
		b := NewBFS(root)
		if _, _, err := mg.iterate(b, true, 1<<16); err != nil {
			return false
		}
		want := graph.RefBFS(graph.NewCSR(el, false), root)
		for v, d := range b.Depths() {
			if d != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: WCC labels match the union-find reference on random graphs.
func TestQuickWCCEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 2, seed))
		if err != nil {
			return false
		}
		mg, err := quickGraph(t, el, defaultOpts(), seed)
		if err != nil {
			return false
		}
		defer mg.g.Close()
		w := NewWCC()
		if _, _, err := mg.iterate(w, true, 1<<16); err != nil {
			return false
		}
		want := graph.RefWCC(el)
		for v, l := range w.Labels() {
			if l != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// quickGraph converts a property test's graph in the codec its seed
// picks, so the properties range over codecs too. The caller closes it.
func quickGraph(t *testing.T, el *graph.EdgeList, opts tile.ConvertOptions, seed uint64) (*memGraph, error) {
	opts.Codec = codecs[seed%uint64(len(codecs))]
	g, err := tile.Convert(el, t.TempDir(), "q", opts)
	if err != nil {
		return nil, err
	}
	mg, err := newMemGraph(g)
	if err != nil {
		g.Close()
	}
	return mg, err
}
