package algo

import (
	"fmt"
	"sync/atomic"

	"github.com/gwu-systems/gstore/internal/tile"
)

// AsyncBFS is the asynchronous (label-correcting) BFS variant the paper
// cites (§II-B, Pearce et al. [26]): instead of expanding one frontier
// level per pass, every pass relaxes depth[d] = min(depth[d], depth[s]+1)
// over all tuples, letting depths propagate several hops within a single
// pass (tiles later in disk order see the updates of earlier tiles).
// The algorithm converges to exactly the level-synchronous BFS depths in
// far fewer iterations — the trade the paper describes for semi-external
// engines, where a full pass over the graph is the unit of I/O cost.
//
// Depths use int32 with unreached encoded as MaxInt32 internally (so
// min-relaxation works) and -1 in the public result.
type AsyncBFS struct {
	Root uint32

	ctx     *Context
	depth   []int32
	changed atomic.Int64
	curRow  *bitset
	nextRow *bitset
	iter0   bool
}

const unreachedDepth = int32(1<<31 - 1)

// NewAsyncBFS returns an asynchronous BFS kernel rooted at root.
func NewAsyncBFS(root uint32) *AsyncBFS { return &AsyncBFS{Root: root} }

// Name implements Algorithm.
func (b *AsyncBFS) Name() string { return "async-bfs" }

// Init implements Algorithm.
func (b *AsyncBFS) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if b.Root >= ctx.NumVertices {
		return fmt.Errorf("async-bfs: root %d outside vertex space %d", b.Root, ctx.NumVertices)
	}
	b.ctx = ctx
	b.depth = make([]int32, ctx.NumVertices)
	for i := range b.depth {
		b.depth[i] = unreachedDepth
	}
	b.depth[b.Root] = 0
	b.curRow = newBitset(ctx.Layout.P)
	b.nextRow = newBitset(ctx.Layout.P)
	b.curRow.Set(ctx.Layout.TileOf(b.Root))
	b.iter0 = true
	return nil
}

// Depths returns the result with the package's usual -1-for-unreached
// convention.
func (b *AsyncBFS) Depths() []int32 {
	out := make([]int32, len(b.depth))
	for i, d := range b.depth {
		if d == unreachedDepth {
			out[i] = -1
		} else {
			out[i] = d
		}
	}
	return out
}

// BeforeIteration implements Algorithm.
func (b *AsyncBFS) BeforeIteration(iter int) {
	b.changed.Store(0)
	b.iter0 = iter == 0
}

// ProcessTileChunk implements Algorithm. The depth relaxations stay
// atomic (chunks of one tile race on shared vertices); the changed
// counter and the two change-map bits are accumulated on the stack and
// flushed once per chunk.
func (b *AsyncBFS) ProcessTileChunk(_ int, row, col uint32, data []byte) {
	depth, half := b.depth, b.ctx.Half
	rb, cb := b.ctx.bases(row, col)
	var src, dst [tile.V3BlockTuples]uint32
	var lowCol, lowRow int64
	for len(data) > 0 {
		n, rest, err := tile.DecodeBatch(b.ctx.Codec, data, rb, cb, &src, &dst)
		if err != nil {
			break // the engine verified the tile; fsck reports corruption
		}
		for i := 0; i < n; i++ {
			s, d := src[i], dst[i]
			ds := atomic.LoadInt32(&depth[s])
			dd := atomic.LoadInt32(&depth[d])
			if ds != unreachedDepth && ds+1 < dd {
				if atomicMinInt32(&depth[d], ds+1) {
					lowCol++
				}
				dd = atomic.LoadInt32(&depth[d])
			}
			// The reverse direction applies only under symmetry storage:
			// directed edges are one-way.
			if half && dd != unreachedDepth && dd+1 < ds && atomicMinInt32(&depth[s], dd+1) {
				lowRow++
			}
		}
		data = rest
	}
	if lowCol > 0 {
		b.nextRow.Set(col)
	}
	if lowRow > 0 {
		b.nextRow.Set(row)
	}
	if lowCol+lowRow > 0 {
		b.changed.Add(lowCol + lowRow)
	}
}

// ProcessTile implements Algorithm: the whole tile as worker 0, not safe
// for concurrent use.
func (b *AsyncBFS) ProcessTile(row, col uint32, data []byte) { b.ProcessTileChunk(0, row, col, data) }

// AfterIteration implements Algorithm.
func (b *AsyncBFS) AfterIteration(int) bool {
	done := b.changed.Load() == 0
	b.curRow, b.nextRow = b.nextRow, b.curRow
	b.nextRow.Clear()
	b.iter0 = false
	return done
}

// NeedTileThisIter implements Algorithm. The first pass must see every
// tile (depths can propagate many hops in one pass, so any tile may have
// work); afterwards only tiles whose ranges saw changes.
func (b *AsyncBFS) NeedTileThisIter(row, col uint32) bool {
	if b.iter0 {
		return true
	}
	if b.curRow.Has(row) {
		return true
	}
	if b.ctx.Half {
		return b.curRow.Has(col)
	}
	// Directed: a change in the destination range can enable new forward
	// relaxations from that range's vertices as sources, which is the
	// row axis — but also d-side improvements matter when d is a source
	// elsewhere. Tiles are keyed by source range (row), so col changes
	// only matter for the mirrored direction, which directed graphs do
	// not process.
	return false
}

// NeedTileNextIter implements Algorithm.
func (b *AsyncBFS) NeedTileNextIter(row, col uint32) bool {
	if b.nextRow.Has(row) {
		return true
	}
	return b.ctx.Half && b.nextRow.Has(col)
}

// MetadataBytes implements Algorithm.
func (b *AsyncBFS) MetadataBytes() int64 {
	return int64(len(b.depth))*4 + b.curRow.SizeBytes() + b.nextRow.SizeBytes()
}
