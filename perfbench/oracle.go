package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// edgeFactor is the Graph500 edge factor of every workload's graph.
const edgeFactor = 16

// graphSeed fixes the Kronecker graph of each scale: the graph is the
// benchmark's data set, and --seed picks the workload instance on it
// (roots, arrival schedule, op sequence and inserted edges), so runs
// with different seeds differ in what they ask, not in the data.
const graphSeed = 20161113

// generate makes the workload's Kronecker graph.
func generate(scale uint) (*graph.EdgeList, error) {
	return gen.Generate(gen.Graph500Config(scale, edgeFactor, graphSeed))
}

// convertOptions are the tile-format settings of every workload: 64
// tiles per side, 8x8-tile physical groups, symmetric storage and a
// degree file (PageRank needs it).
func convertOptions(scale uint, codec string) tile.ConvertOptions {
	o := tile.ConvertOptions{TileBits: 1, GroupQ: 8, Symmetry: true, Degrees: true}
	if scale > 6 {
		o.TileBits = scale - 6
	}
	if codec == "snb" {
		o.SNB = true
	} else {
		o.Codec = codec
	}
	return o
}

// rngFor derives an independent generator for one use of the seed, so
// adding draws for one purpose never shifts another's.
func rngFor(seed uint64, purpose int64) *rand.Rand {
	x := seed*0x9e3779b97f4a7c15 + uint64(purpose)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// Seed purposes.
const (
	purposeRoots = iota + 1
	purposeGateRoots
	purposeProbeRoots
	purposeSchedule // + rung index
)

// giantComponent lists, in ID order, the vertices of the largest
// weakly connected component given reference labels.
func giantComponent(labels []graph.VertexID) []uint32 {
	size := map[graph.VertexID]int{}
	best := graph.VertexID(0)
	for _, l := range labels {
		size[l]++
		if size[l] > size[best] || (size[l] == size[best] && l < best) {
			best = l
		}
	}
	out := make([]uint32, 0, size[best])
	for v, l := range labels {
		if l == best {
			out = append(out, uint32(v))
		}
	}
	return out
}

// pickRoots draws n distinct vertices of the giant component.
func pickRoots(giant []uint32, n int, rng *rand.Rand) []uint32 {
	n = min(n, len(giant))
	roots := make([]uint32, 0, n)
	for _, i := range rng.Perm(len(giant))[:n] {
		roots = append(roots, giant[i])
	}
	return roots
}

// checkDepths compares BFS depths exactly.
func checkDepths(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d depths, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("depth[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkLabels compares component labels exactly.
func checkLabels(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d labels, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// rankTolerance is the PageRank agreement the repository's oracle tests
// require.
const rankTolerance = 1e-9

// checkRanks compares PageRank vectors within rankTolerance.
func checkRanks(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks, want %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); !(d <= rankTolerance) {
			return fmt.Errorf("|rank[%d] - reference| = %g > %g", v, d, rankTolerance)
		}
	}
	return nil
}
