package algo

import (
	"fmt"
	"sync/atomic"

	"github.com/gwu-systems/gstore/internal/tile"
)

// SCC computes strongly connected components of a directed graph with the
// parallel coloring algorithm (Fleischer et al., the paper's [10], in the
// iterative formulation of Orzan): repeat { propagate the maximum vertex
// ID forward as a color until fixpoint; every color class is then rooted
// at its own color vertex, and the vertices of the class that reach the
// root backward *within the class* form one SCC } until every vertex is
// assigned.
//
// §IV-A of the paper singles SCC out: it needs both edge directions, so
// CSR-based engines must store in-edges and out-edges separately — but a
// tile tuple exposes both endpoints, so one stored direction serves both
// the forward (color) and backward (mark) sweeps. This kernel is the
// demonstration of that claim.
//
// The kernel is a phase machine behind the ordinary Algorithm interface:
// engine iterations alternate between forward-color fixpoints and
// backward-mark fixpoints, with a harvest step between them.
type SCC struct {
	ctx *Context

	// color[v]: the max vertex ID that reaches v among unassigned
	// vertices (forward propagation).
	color []uint32
	// assigned[v]: v's SCC is final.
	assigned *bitset
	// marked[v]: v reaches its color root backward within its class.
	marked *bitset
	// scc[v]: final label — the minimum vertex of v's SCC.
	scc []uint32

	phase   sccPhase
	changed atomic.Int64
	left    int64 // unassigned vertices
}

type sccPhase int

const (
	phaseColor sccPhase = iota
	phaseMark
)

// NewSCC returns a strongly-connected-components kernel. The graph must
// be directed (on an undirected graph SCC degenerates to WCC; use that
// instead).
func NewSCC() *SCC { return &SCC{} }

// Name implements Algorithm.
func (s *SCC) Name() string { return "scc" }

// Init implements Algorithm.
func (s *SCC) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if !ctx.Directed {
		return fmt.Errorf("scc: graph is undirected; strongly connected components require directed edges")
	}
	s.ctx = ctx
	n := ctx.NumVertices
	s.color = make([]uint32, n)
	s.scc = make([]uint32, n)
	s.assigned = newBitset(n)
	s.marked = newBitset(n)
	s.left = int64(n)
	for v := range s.color {
		s.color[v] = uint32(v)
	}
	s.phase = phaseColor
	return nil
}

// Labels returns, after the run, the smallest vertex ID of every vertex's
// strongly connected component.
func (s *SCC) Labels() []uint32 { return s.scc }

// BeforeIteration implements Algorithm.
func (s *SCC) BeforeIteration(int) { s.changed.Store(0) }

// ProcessTileChunk implements Algorithm: one propagation step of the
// current phase per tuple, with the shared changed counter batched into
// one atomic add per chunk.
func (s *SCC) ProcessTileChunk(_ int, row, col uint32, data []byte) {
	mark := s.phase == phaseMark
	rb, cb := s.ctx.bases(row, col)
	var src, dst [tile.V3BlockTuples]uint32
	var changed int64
	for len(data) > 0 {
		n, rest, err := tile.DecodeBatch(s.ctx.Codec, data, rb, cb, &src, &dst)
		if err != nil {
			break // the engine verified the tile; fsck reports corruption
		}
		for i := 0; i < n; i++ {
			u, v := src[i], dst[i]
			if s.assigned.Has(u) || s.assigned.Has(v) {
				continue
			}
			if mark && s.markEdge(u, v) || !mark && s.colorEdge(u, v) {
				changed++
			}
		}
		data = rest
	}
	if changed > 0 {
		s.changed.Add(changed)
	}
}

// ProcessTile implements Algorithm: the whole tile as worker 0, not safe
// for concurrent use.
func (s *SCC) ProcessTile(row, col uint32, data []byte) { s.ProcessTileChunk(0, row, col, data) }

// colorEdge propagates colors forward along u -> v (both unassigned) and
// reports whether v's color changed.
func (s *SCC) colorEdge(u, v uint32) bool {
	cu := atomic.LoadUint32(&s.color[u])
	return cu > atomic.LoadUint32(&s.color[v]) && atomicMaxUint32(&s.color[v], cu)
}

// markEdge propagates backward reachability within a color class: if v
// is marked and u -> v with equal colors (both unassigned), u joins the
// root's backward set. It reports whether u was newly marked.
func (s *SCC) markEdge(u, v uint32) bool {
	if !s.marked.Has(v) || s.marked.Has(u) {
		return false
	}
	if atomic.LoadUint32(&s.color[u]) != atomic.LoadUint32(&s.color[v]) {
		return false
	}
	return s.marked.Set(u)
}

// AfterIteration implements Algorithm: drive the phase machine.
func (s *SCC) AfterIteration(int) bool {
	if s.changed.Load() > 0 {
		return false // current fixpoint not reached yet
	}
	switch s.phase {
	case phaseColor:
		// Colors are stable: seed the backward sweep at every color root.
		n := uint32(len(s.color))
		for v := uint32(0); v < n; v++ {
			if !s.assigned.Has(v) && s.color[v] == v {
				s.marked.Set(v)
			}
		}
		s.phase = phaseMark
		return false
	default: // phaseMark
		// Marked vertices form whole SCCs (one per color root). Harvest:
		// assign them, labeled by the minimum member of each class.
		n := uint32(len(s.color))
		min := make(map[uint32]uint32)
		for v := uint32(0); v < n; v++ {
			if s.marked.Has(v) && !s.assigned.Has(v) {
				c := s.color[v]
				if m, ok := min[c]; !ok || v < m {
					min[c] = v
				}
			}
		}
		for v := uint32(0); v < n; v++ {
			if s.marked.Has(v) && !s.assigned.Has(v) {
				s.scc[v] = min[s.color[v]]
				s.assigned.Set(v)
				s.left--
			}
		}
		s.marked.Clear()
		if s.left == 0 {
			return true
		}
		// Reset colors of the survivors and start a new round.
		for v := uint32(0); v < n; v++ {
			if !s.assigned.Has(v) {
				s.color[v] = v
			}
		}
		s.phase = phaseColor
		return false
	}
}

// NeedTileThisIter implements Algorithm. The phase machine's fixpoints
// need whole-graph passes; tiles whose vertex ranges are fully assigned
// could be skipped, but tracking that per tile costs more than it saves
// at reproduction scale, so SCC reads everything (like PageRank).
func (s *SCC) NeedTileThisIter(uint32, uint32) bool { return true }

// NeedTileNextIter implements Algorithm.
func (s *SCC) NeedTileNextIter(uint32, uint32) bool { return s.left > 0 }

// MetadataBytes implements Algorithm.
func (s *SCC) MetadataBytes() int64 {
	return int64(len(s.color))*4 + int64(len(s.scc))*4 +
		s.assigned.SizeBytes() + s.marked.SizeBytes()
}
