package algo

import (
	"fmt"
	"math"

	"github.com/gwu-systems/gstore/internal/tile"
)

// PageRank is the iterative kernel of §II-B: every vertex divides its rank
// by its out-degree and transmits the share along its out-edges. Under
// symmetry (half) storage each stored tuple carries contributions in both
// directions, halving the data read per iteration — the saving Figure 10
// measures. Dangling mass is redistributed uniformly so the ranks stay a
// distribution (which is also what makes the result comparable to the
// reference implementation).
//
// PageRank is the paper's example of an algorithm where metadata access is
// random while graph access is sequential: all tiles are needed every
// iteration (NeedTile* always answer true), so its performance is driven
// by the storage format, the physical grouping, and SCR — not by selective
// I/O.
type PageRank struct {
	// Iterations caps the run; if Epsilon is zero it is the exact count.
	Iterations int
	// Epsilon, when positive, stops once the L1 rank delta drops below it.
	Epsilon float64

	ctx      *Context
	rank     []float64
	nextW    [][]float64 // one private accumulator slab per worker
	share    []float64
	dangling float64
	delta    float64
}

// NewPageRank returns a kernel running the given number of iterations.
func NewPageRank(iterations int) *PageRank {
	return &PageRank{Iterations: iterations}
}

// Name implements Algorithm.
func (p *PageRank) Name() string { return "pagerank" }

const damping = 0.85

// Init implements Algorithm.
func (p *PageRank) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if ctx.Degrees == nil {
		return fmt.Errorf("pagerank: graph has no degree data (convert with Degrees enabled)")
	}
	if p.Iterations <= 0 {
		return fmt.Errorf("pagerank: %d iterations", p.Iterations)
	}
	p.ctx = ctx
	n := int(ctx.NumVertices)
	p.rank = make([]float64, n)
	p.share = make([]float64, n)
	// One private accumulator slab per worker: the kernel adds rank
	// shares without any atomics and AfterIteration reduces the slabs
	// once (BigSparse-style merge-reduce).
	p.nextW = make([][]float64, max(ctx.Workers, 1))
	for w := range p.nextW {
		p.nextW[w] = make([]float64, n)
	}
	inv := 1.0 / float64(n)
	for i := range p.rank {
		p.rank[i] = inv
	}
	return nil
}

// Ranks returns the rank vector after the run.
func (p *PageRank) Ranks() []float64 { return p.rank }

// BeforeIteration implements Algorithm: compute every vertex's outgoing
// share rank/degree (cached so the per-edge work is one load and one
// add) and the dangling mass.
func (p *PageRank) BeforeIteration(int) {
	deg := p.ctx.Degrees
	p.dangling = 0
	for v := range p.share {
		d := deg.Degree(uint32(v))
		if d == 0 {
			p.dangling += p.rank[v]
			p.share[v] = 0
			continue
		}
		p.share[v] = p.rank[v] / float64(d)
	}
	for _, slab := range p.nextW {
		for i := range slab {
			slab[i] = 0
		}
	}
}

// ProcessTileChunk implements Algorithm: contributions accumulate in the
// worker's private slab, so the hot path has no atomics at all. The slabs
// are reduced once in AfterIteration.
func (p *PageRank) ProcessTileChunk(worker int, row, col uint32, data []byte) {
	share, next, both := p.share, p.nextW[worker], p.ctx.Half
	rb, cb := p.ctx.bases(row, col)
	var src, dst [tile.V3BlockTuples]uint32
	for len(data) > 0 {
		n, rest, err := tile.DecodeBatch(p.ctx.Codec, data, rb, cb, &src, &dst)
		if err != nil {
			break // the engine verified the tile; fsck reports corruption
		}
		for i := 0; i < n; i++ {
			s, d := src[i], dst[i]
			next[d] += share[s]
			if both && s != d {
				next[s] += share[d]
			}
		}
		data = rest
	}
}

// ProcessTile implements Algorithm: the whole tile as worker 0, not safe
// for concurrent use.
func (p *PageRank) ProcessTile(row, col uint32, data []byte) { p.ProcessTileChunk(0, row, col, data) }

// AfterIteration implements Algorithm: apply damping and the uniform
// teleport, which spreads the dangling mass too.
func (p *PageRank) AfterIteration(iter int) bool {
	n := float64(len(p.rank))
	return p.reduce(iter, (1-damping)/n+damping*p.dangling/n, -1, 0)
}

// reduce ends an iteration for PageRank and PPR: it sums the per-worker
// slabs into each vertex's new rank base + damping*sum (plus restart at
// vertex root), records the L1 delta and reports convergence.
func (p *PageRank) reduce(iter int, base float64, root int, restart float64) bool {
	delta := 0.0
	for v := range p.rank {
		sum := 0.0
		for _, slab := range p.nextW {
			sum += slab[v]
		}
		nv := base + damping*sum
		if v == root {
			nv += restart
		}
		delta += math.Abs(nv - p.rank[v])
		p.rank[v] = nv
	}
	p.delta = delta
	if p.Epsilon > 0 && delta < p.Epsilon {
		return true
	}
	return iter+1 >= p.Iterations
}

// Delta returns the L1 rank change of the last iteration.
func (p *PageRank) Delta() float64 { return p.delta }

// NeedTileThisIter implements Algorithm: PageRank streams the whole graph
// every iteration.
func (p *PageRank) NeedTileThisIter(uint32, uint32) bool { return true }

// NeedTileNextIter implements Algorithm: "for PageRank, all of the graph
// data would be utilized for the next iteration" (§III Observation 3).
func (p *PageRank) NeedTileNextIter(uint32, uint32) bool { return true }

// MetadataBytes implements Algorithm: rank and share arrays, the
// per-worker slabs, plus the degree structure.
func (p *PageRank) MetadataBytes() int64 {
	b := int64(len(p.rank))*8 + int64(len(p.share))*8
	for _, slab := range p.nextW {
		b += int64(len(slab)) * 8
	}
	if p.ctx != nil && p.ctx.Degrees != nil {
		b += p.ctx.Degrees.SizeBytes()
	}
	return b
}
