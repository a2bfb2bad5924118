package algo

import (
	"fmt"
	"sync/atomic"

	"github.com/gwu-systems/gstore/internal/tile"
)

// BFS is the level-synchronous breadth-first search kernel. On
// symmetry-stored (half) undirected graphs it applies the paper's
// Algorithm 1: every tuple is checked in both directions, which is the
// small code change that lets BFS run on the upper triangle alone.
//
// Depth values double as the frontier (depth[v] == current level marks v
// as a frontier vertex), and per-tile-row frontier bitmaps drive the
// selective fetching of §V-B: in the last iterations of BFS only a few
// tiles contain frontier work and only those are read.
type BFS struct {
	Root uint32

	ctx     *Context
	depth   []int32
	level   int32
	added   atomic.Int64
	curRow  *bitset // tile rows containing current-frontier vertices
	nextRow *bitset
	// rowUnvisited[r] counts still-unvisited vertices in tile row r. Once
	// a row (and, under symmetry, a column) hits zero, its tiles can never
	// produce work again — the paper's §III observation that "the
	// adjacency list of a previously visited node will never need to be
	// accessed again", which drives proactive eviction.
	rowUnvisited []atomic.Int64
}

// NewBFS returns a BFS kernel rooted at root.
func NewBFS(root uint32) *BFS { return &BFS{Root: root} }

// Name implements Algorithm.
func (b *BFS) Name() string { return "bfs" }

// Init implements Algorithm.
func (b *BFS) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if b.Root >= ctx.NumVertices {
		return fmt.Errorf("bfs: root %d outside vertex space %d", b.Root, ctx.NumVertices)
	}
	b.ctx = ctx
	b.depth = make([]int32, ctx.NumVertices)
	for i := range b.depth {
		b.depth[i] = -1
	}
	b.curRow = newBitset(ctx.Layout.P)
	b.nextRow = newBitset(ctx.Layout.P)
	b.rowUnvisited = make([]atomic.Int64, ctx.Layout.P)
	width := int64(ctx.Layout.TileWidth())
	for r := uint32(0); r < ctx.Layout.P; r++ {
		lo, _ := ctx.Layout.VertexRange(r)
		n := int64(ctx.NumVertices) - int64(lo)
		if n > width {
			n = width
		}
		b.rowUnvisited[r].Store(n)
	}
	b.depth[b.Root] = 0
	b.curRow.Set(ctx.Layout.TileOf(b.Root))
	b.rowUnvisited[ctx.Layout.TileOf(b.Root)].Add(-1)
	return nil
}

// Depths returns the result after the run (InfDepth convention of
// internal/graph: -1 means unreached).
func (b *BFS) Depths() []int32 { return b.depth }

// BeforeIteration implements Algorithm.
func (b *BFS) BeforeIteration(iter int) {
	b.level = int32(iter)
	b.added.Store(0)
}

// ProcessTileChunk implements Algorithm. The depth CAS must stay atomic
// (chunks of one tile race on shared vertices), but the frontier bitmap
// and the per-row counters are pure bookkeeping: a chunk touches only its
// tile's row and column ranges, so discoveries are counted in two
// stack-local accumulators and flushed with at most three atomic
// operations per chunk instead of three per discovered vertex.
func (b *BFS) ProcessTileChunk(_ int, row, col uint32, data []byte) {
	level, depth, half := b.level, b.depth, b.ctx.Half
	rb, cb := b.ctx.bases(row, col)
	var src, dst [tile.V3BlockTuples]uint32
	var fwd, rev int64 // discoveries in the col and row ranges
	for len(data) > 0 {
		n, rest, err := tile.DecodeBatch(b.ctx.Codec, data, rb, cb, &src, &dst)
		if err != nil {
			break // the engine verified the tile; fsck reports corruption
		}
		for i := 0; i < n; i++ {
			s, d := src[i], dst[i]
			// Forward direction: src on the frontier discovers dst.
			if atomic.LoadInt32(&depth[s]) == level && atomic.LoadInt32(&depth[d]) == -1 &&
				atomic.CompareAndSwapInt32(&depth[d], -1, level+1) {
				fwd++
			}
			// Algorithm 1's added lines 8–10: with only the upper
			// triangle stored, the mirrored direction must be checked too.
			if half && atomic.LoadInt32(&depth[d]) == level && atomic.LoadInt32(&depth[s]) == -1 &&
				atomic.CompareAndSwapInt32(&depth[s], -1, level+1) {
				rev++
			}
		}
		data = rest
	}
	if fwd > 0 {
		b.nextRow.Set(col)
		b.rowUnvisited[col].Add(-fwd)
	}
	if rev > 0 {
		b.nextRow.Set(row)
		b.rowUnvisited[row].Add(-rev)
	}
	if fwd+rev > 0 {
		b.added.Add(fwd + rev)
	}
}

// ProcessTile implements Algorithm: the whole tile as worker 0, not safe
// for concurrent use.
func (b *BFS) ProcessTile(row, col uint32, data []byte) { b.ProcessTileChunk(0, row, col, data) }

// AfterIteration implements Algorithm.
func (b *BFS) AfterIteration(int) bool {
	done := b.added.Load() == 0
	b.curRow, b.nextRow = b.nextRow, b.curRow
	b.nextRow.Clear()
	return done
}

// NeedTileThisIter implements Algorithm. A tile can produce work when the
// frontier intersects its source range — or, under symmetry storage, its
// destination range.
func (b *BFS) NeedTileThisIter(row, col uint32) bool {
	if b.curRow.Has(row) {
		return true
	}
	return b.ctx.Half && b.curRow.Has(col)
}

// NeedTileNextIter implements Algorithm, applying the proactive caching
// rules of §VI-C with the partial information available mid-iteration:
// a tile is surely needed if the (partial) next frontier already touches
// its ranges; surely dead if every vertex in its ranges is visited (no
// new frontier can ever arise there); otherwise conservatively kept.
func (b *BFS) NeedTileNextIter(row, col uint32) bool {
	if b.nextRow.Has(row) || (b.ctx.Half && b.nextRow.Has(col)) {
		return true
	}
	if b.rowUnvisited[row].Load() == 0 &&
		(!b.ctx.Half || b.rowUnvisited[col].Load() == 0) {
		return false
	}
	return true
}

// MetadataBytes implements Algorithm: the depth array, the two frontier
// row maps and the per-row unvisited counters.
func (b *BFS) MetadataBytes() int64 {
	return int64(len(b.depth))*4 + b.curRow.SizeBytes() + b.nextRow.SizeBytes() +
		int64(len(b.rowUnvisited))*8
}
