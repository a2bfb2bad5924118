package algo

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/gwu-systems/gstore/internal/tile"
)

// MSBFS runs up to 64 breadth-first searches concurrently in one pass
// over the graph, the batched formulation of concurrent BFS the paper
// cites as iBFS [22]. Every vertex carries two 64-bit masks:
//
//	visited[v] — bit i set once source i has reached v,
//	cur[v]     — bit i set while v is on source i's current frontier.
//
// One tuple inspection advances all sources at once: the new frontier
// bits of d are cur[s] &^ visited[d]. Sharing the graph pass across
// sources amortizes the I/O that dominates semi-external BFS — one
// stream of the tiles serves 64 traversals.
//
// Depths are recovered per source from the iteration at which each
// visited bit was set.
type MSBFS struct {
	Roots []uint32

	ctx     *Context
	visited []uint64
	cur     []uint64
	next    []uint64
	// depth[i*|V|+v] = depth of v from source i (-1 unreached), filled
	// when bits first appear.
	depth   []int32
	level   int32
	added   atomic.Int64
	curRow  *bitset
	nextRow *bitset
}

// NewMSBFS returns a kernel traversing from up to 64 roots at once.
func NewMSBFS(roots []uint32) *MSBFS { return &MSBFS{Roots: roots} }

// Name implements Algorithm.
func (m *MSBFS) Name() string { return "msbfs" }

// Init implements Algorithm.
func (m *MSBFS) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if len(m.Roots) == 0 || len(m.Roots) > 64 {
		return fmt.Errorf("msbfs: %d roots, want 1..64", len(m.Roots))
	}
	for i, r := range m.Roots {
		if r >= ctx.NumVertices {
			return fmt.Errorf("msbfs: root %d (#%d) outside vertex space %d", r, i, ctx.NumVertices)
		}
	}
	m.ctx = ctx
	n := int(ctx.NumVertices)
	m.visited = make([]uint64, n)
	m.cur = make([]uint64, n)
	m.next = make([]uint64, n)
	m.depth = make([]int32, n*len(m.Roots))
	for i := range m.depth {
		m.depth[i] = -1
	}
	m.curRow = newBitset(ctx.Layout.P)
	m.nextRow = newBitset(ctx.Layout.P)
	for i, r := range m.Roots {
		bit := uint64(1) << uint(i)
		m.visited[r] |= bit
		m.cur[r] |= bit
		m.depth[i*n+int(r)] = 0
		m.curRow.Set(ctx.Layout.TileOf(r))
	}
	return nil
}

// Depth returns the depth array of source i (aliasing internal storage).
func (m *MSBFS) Depth(i int) []int32 {
	n := int(m.ctx.NumVertices)
	return m.depth[i*n : (i+1)*n]
}

// BeforeIteration implements Algorithm.
func (m *MSBFS) BeforeIteration(iter int) {
	m.level = int32(iter)
	m.added.Store(0)
}

// ProcessTileChunk implements Algorithm. The visited/next mask updates
// stay atomic (chunks of one tile race on shared vertices); the frontier
// row bits and the added counter are accumulated on the stack and
// flushed once per chunk, as in BFS.
func (m *MSBFS) ProcessTileChunk(_ int, row, col uint32, data []byte) {
	cur, visited, half := m.cur, m.visited, m.ctx.Half
	rb, cb := m.ctx.bases(row, col)
	var src, dst [tile.V3BlockTuples]uint32
	var fwd, rev int64 // vertices gaining sources in the col and row ranges
	for len(data) > 0 {
		n, rest, err := tile.DecodeBatch(m.ctx.Codec, data, rb, cb, &src, &dst)
		if err != nil {
			break // the engine verified the tile; fsck reports corruption
		}
		for i := 0; i < n; i++ {
			s, d := src[i], dst[i]
			if f := atomic.LoadUint64(&cur[s]) &^ atomic.LoadUint64(&visited[d]); f != 0 && m.spread(d, f) {
				fwd++
			}
			if half {
				if f := atomic.LoadUint64(&cur[d]) &^ atomic.LoadUint64(&visited[s]); f != 0 && m.spread(s, f) {
					rev++
				}
			}
		}
		data = rest
	}
	if fwd > 0 {
		m.nextRow.Set(col)
	}
	if rev > 0 {
		m.nextRow.Set(row)
	}
	if fwd+rev > 0 {
		m.added.Add(fwd + rev)
	}
}

// ProcessTile implements Algorithm: the whole tile as worker 0, not safe
// for concurrent use.
func (m *MSBFS) ProcessTile(row, col uint32, data []byte) { m.ProcessTileChunk(0, row, col, data) }

// spread installs the new frontier bits f at vertex v and records their
// depths. It reports whether any bit was new.
func (m *MSBFS) spread(v uint32, f uint64) bool {
	for {
		old := atomic.LoadUint64(&m.visited[v])
		add := f &^ old
		if add == 0 {
			return false
		}
		if !atomic.CompareAndSwapUint64(&m.visited[v], old, old|add) {
			continue
		}
		orUint64(&m.next[v], add)
		// Record depths for the sources that just arrived.
		n := int(m.ctx.NumVertices)
		for rest := add; rest != 0; rest &= rest - 1 {
			m.depth[bits.TrailingZeros64(rest)*n+int(v)] = m.level + 1
		}
		return true
	}
}

// AfterIteration implements Algorithm.
func (m *MSBFS) AfterIteration(int) bool {
	done := m.added.Load() == 0
	m.cur, m.next = m.next, m.cur
	for i := range m.next {
		m.next[i] = 0
	}
	m.curRow, m.nextRow = m.nextRow, m.curRow
	m.nextRow.Clear()
	return done
}

// NeedTileThisIter implements Algorithm.
func (m *MSBFS) NeedTileThisIter(row, col uint32) bool {
	if m.curRow.Has(row) {
		return true
	}
	return m.ctx.Half && m.curRow.Has(col)
}

// NeedTileNextIter implements Algorithm.
func (m *MSBFS) NeedTileNextIter(row, col uint32) bool {
	if m.nextRow.Has(row) {
		return true
	}
	return m.ctx.Half && m.nextRow.Has(col)
}

// MetadataBytes implements Algorithm: three masks plus the per-source
// depth matrix.
func (m *MSBFS) MetadataBytes() int64 {
	return int64(len(m.visited)+len(m.cur)+len(m.next))*8 +
		int64(len(m.depth))*4 + m.curRow.SizeBytes() + m.nextRow.SizeBytes()
}
