// Package algo implements the graph algorithms of the paper's evaluation
// (§II-B) and their variants as tile kernels: breadth-first search
// (level-synchronous, asynchronous and 64-source), PageRank and
// personalized PageRank, and weakly and strongly connected components.
// Each kernel has one entry point, ProcessTileChunk, with one loop over
// the tuple pairs tile.DecodeBatch decodes, whatever the codec. Each
// algorithm also exposes the metadata hooks the engine needs for
// selective fetching (§V-B) and proactive caching (§VI-C): which tiles it
// needs this iteration and which it predicts it will need next iteration.
package algo

import (
	"fmt"

	"github.com/gwu-systems/gstore/internal/grid"
	"github.com/gwu-systems/gstore/internal/tile"
)

// Context is what the engine hands an algorithm at initialization.
type Context struct {
	NumVertices uint32
	Layout      *grid.Layout
	Directed    bool
	// Half reports upper-triangle (symmetry) storage: kernels must then
	// process every tuple in both directions (Algorithm 1 in the paper).
	Half bool
	// Codec is the tuple codec of the data handed to ProcessTileChunk.
	Codec tile.Codec
	// Degrees supplies vertex degrees; nil unless the graph was converted
	// with degree output. PageRank requires it.
	Degrees tile.DegreeSource
	// Workers is the number of goroutines that will call
	// ProcessTileChunk, each with a stable ID in [0, Workers). Kernels
	// size their per-worker state from it; zero means one worker.
	Workers int
}

func (c *Context) validate() error {
	if c.NumVertices == 0 || c.Layout == nil {
		return fmt.Errorf("algo: incomplete context")
	}
	return nil
}

// bases returns the first vertex IDs of tile (row, col)'s source and
// destination ranges, the offsets DecodeBatch adds to in-tile tuples.
func (c *Context) bases(row, col uint32) (rowBase, colBase uint32) {
	rowBase, _ = c.Layout.VertexRange(row)
	colBase, _ = c.Layout.VertexRange(col)
	return rowBase, colBase
}

// Algorithm is the engine-facing interface of a tile kernel.
//
// The engine guarantees: Init once; then for each iteration a
// BeforeIteration call, any number of concurrent ProcessTileChunk calls
// (from Context.Workers goroutines), then one AfterIteration call.
// NeedTileThisIter is only called between AfterIteration and the next
// iteration's processing; NeedTileNextIter may be called concurrently
// with ProcessTileChunk (it reads partially accumulated next-iteration
// metadata, which is exactly the paper's "partial information" caching,
// §VI-C Rule 2).
//
// A chunk is a whole number of tuples (or v3 blocks) from a single tile
// (row, col); the union of a tile's chunks is exactly its data, and the
// engine splits a tile only when it exceeds the chunk size. Chunks of one
// tile may be processed concurrently by different workers; two calls with
// the same worker ID never run concurrently, so kernels accumulate into
// per-worker state without locks (FlashGraph per-thread partitioning;
// BigSparse merge-reduce) and batch shared-metadata updates per chunk.
// Per-worker state is reduced in AfterIteration, after every chunk of the
// iteration is done.
type Algorithm interface {
	// Name is a short identifier ("bfs", "pagerank", "wcc").
	Name() string
	// Init allocates algorithmic metadata.
	Init(ctx *Context) error
	// BeforeIteration prepares iteration iter (0-based).
	BeforeIteration(iter int)
	// ProcessTileChunk consumes one chunk of tile (row, col)'s data, in
	// the encoding announced by Context.Codec, on behalf of worker
	// (0 <= worker < max(Context.Workers, 1)). Safe for concurrent
	// invocation with distinct worker IDs, including on chunks of the
	// same tile.
	ProcessTileChunk(worker int, row, col uint32, data []byte)
	// ProcessTile is ProcessTileChunk(0, row, col, data): a whole tile
	// as worker 0. It is not safe for concurrent invocation. The engine
	// never calls it; it remains for callers that wrap kernels by tile.
	ProcessTile(row, col uint32, data []byte)
	// AfterIteration finishes iteration iter and reports convergence.
	AfterIteration(iter int) (done bool)
	// NeedTileThisIter reports whether tile (row, col) must be processed
	// in the upcoming iteration (selective fetching).
	NeedTileThisIter(row, col uint32) bool
	// NeedTileNextIter predicts whether the tile will be needed in the
	// following iteration (proactive caching). May be conservative.
	NeedTileNextIter(row, col uint32) bool
	// MetadataBytes reports the memory the algorithm's metadata occupies
	// (the paper's Table III memory accounting).
	MetadataBytes() int64
}

// ChunkedAlgorithm is Algorithm. The alias keeps the name that the
// benchmark's tracing wrapper (perfbench/trace.go) type-asserts.
type ChunkedAlgorithm = Algorithm
