package algo

import (
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

func TestMSBFSValidation(t *testing.T) {
	el := kronEL(t, 6, 4, 71)
	mg := load(t, el, defaultOpts())
	if err := NewMSBFS(nil).Init(mg.ctx); err == nil {
		t.Fatal("zero roots accepted")
	}
	roots := make([]uint32, 65)
	if err := NewMSBFS(roots).Init(mg.ctx); err == nil {
		t.Fatal("65 roots accepted")
	}
	if err := NewMSBFS([]uint32{1 << 30}).Init(mg.ctx); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestMSBFSMatchesIndividualBFS(t *testing.T) {
	el := kronEL(t, 9, 8, 72)
	roots := []uint32{0, 1, 17, 100, 255, 300}
	checkMSBFS(t, el, roots)
}

// checkMSBFS runs one multi-source BFS from roots on every codec and
// compares each source's depths with the reference BFS.
func checkMSBFS(t *testing.T, el *graph.EdgeList, roots []uint32) {
	t.Helper()
	csr := graph.NewCSR(el, false)
	eachCodec(t, el, defaultOpts(), func(t *testing.T, mg *memGraph) {
		ms := NewMSBFS(roots)
		mg.run(t, ms, true, 1000)
		for i, r := range roots {
			want := graph.RefBFS(csr, r)
			got := ms.Depth(i)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("source %d: depth[%d] = %d, want %d", r, v, got[v], want[v])
				}
			}
		}
	})
}

func TestMSBFSDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 73))
	if err != nil {
		t.Fatal(err)
	}
	checkMSBFS(t, el, []uint32{0, 5, 99})
}

func TestMSBFSSixtyFourSources(t *testing.T) {
	el := kronEL(t, 8, 8, 74)
	mg := load(t, el, defaultOpts())
	roots := make([]uint32, 64)
	for i := range roots {
		roots[i] = uint32(i * 3)
	}
	ms := NewMSBFS(roots)
	mg.run(t, ms, true, 1000)
	csr := graph.NewCSR(el, false)
	for _, i := range []int{0, 31, 63} {
		want := graph.RefBFS(csr, roots[i])
		got := ms.Depth(i)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("source #%d: depth[%d] = %d, want %d", i, v, got[v], want[v])
			}
		}
	}
}

// The point of MSBFS: one shared pass serves all sources, so the tile
// visits are far below roots x single-BFS visits.
func TestMSBFSSharesPasses(t *testing.T) {
	el := kronEL(t, 9, 8, 75)
	mg := load(t, el, defaultOpts())

	countVisits := func(a Algorithm) int {
		_, visits, err := mg.iterate(a, true, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return visits
	}

	roots := []uint32{0, 9, 33, 70, 111, 222, 333, 444}
	shared := countVisits(NewMSBFS(roots))
	individual := 0
	for _, r := range roots {
		individual += countVisits(NewBFS(r))
	}
	if shared*2 > individual {
		t.Fatalf("msbfs visited %d tiles, individual BFS total %d; expected >=2x sharing",
			shared, individual)
	}
}

// Property: msbfs depths equal single-source BFS for random root sets.
func TestQuickMSBFSEquivalence(t *testing.T) {
	f := func(seed uint64, rawRoots [4]uint16) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 4, seed))
		if err != nil {
			return false
		}
		mg, err := quickGraph(t, el, defaultOpts(), seed)
		if err != nil {
			return false
		}
		defer mg.g.Close()
		roots := make([]uint32, len(rawRoots))
		for i, r := range rawRoots {
			roots[i] = uint32(r) % el.NumVertices
		}
		ms := NewMSBFS(roots)
		if _, _, err := mg.iterate(ms, true, 1<<16); err != nil {
			return false
		}
		csr := graph.NewCSR(el, false)
		for i, r := range roots {
			want := graph.RefBFS(csr, r)
			got := ms.Depth(i)
			for v := range got {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
