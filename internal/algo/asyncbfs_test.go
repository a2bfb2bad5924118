package algo

import (
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

func TestAsyncBFSMatchesReference(t *testing.T) {
	el := kronEL(t, 9, 8, 21)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		b := NewAsyncBFS(0)
		mg.run(t, b, true, 1000)
		for v, d := range b.Depths() {
			if d != want[v] {
				t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
			}
		}
	})
}

func TestAsyncBFSDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 22))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		b := NewAsyncBFS(0)
		mg.run(t, b, true, 1000)
		for v, d := range b.Depths() {
			if d != want[v] {
				t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
			}
		}
	})
}

// The asynchronous variant's selling point (§II-B, [26]): it needs fewer
// full passes than the level count of the graph.
func TestAsyncBFSFewerIterations(t *testing.T) {
	// A long path: sync BFS needs ~n iterations, async collapses them
	// because depths propagate within a pass in disk order.
	n := uint32(256)
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	mg := load(t, el, tile.ConvertOptions{TileBits: 4, GroupQ: 2, Symmetry: true, SNB: true, Degrees: true})

	sync := NewBFS(0)
	syncIters := mg.run(t, sync, false, 10000)
	async := NewAsyncBFS(0)
	asyncIters := mg.run(t, async, false, 10000)
	if asyncIters*4 > syncIters {
		t.Fatalf("async took %d iterations vs sync %d; expected far fewer", asyncIters, syncIters)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range async.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestAsyncBFSRootValidation(t *testing.T) {
	el := kronEL(t, 6, 4, 23)
	mg := load(t, el, defaultOpts())
	b := NewAsyncBFS(1 << 30)
	if err := b.Init(mg.ctx); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// Property: async BFS equals sync BFS on random graphs and roots.
func TestQuickAsyncEqualsSync(t *testing.T) {
	f := func(seed uint64, rawRoot uint16) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 4, seed))
		if err != nil {
			return false
		}
		mg, err := quickGraph(t, el, defaultOpts(), seed)
		if err != nil {
			return false
		}
		defer mg.g.Close()
		root := uint32(rawRoot) % el.NumVertices
		runKernel := func(a Algorithm) bool {
			_, _, err := mg.iterate(a, true, 1<<16)
			return err == nil
		}
		s := NewBFS(root)
		a := NewAsyncBFS(root)
		if !runKernel(s) || !runKernel(a) {
			return false
		}
		sd, ad := s.Depths(), a.Depths()
		for v := range sd {
			if sd[v] != ad[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
