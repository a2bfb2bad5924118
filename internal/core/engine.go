package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/metrics"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// BadRequestError marks a Run failure caused by the caller's algorithm
// arguments (an out-of-range BFS root, SCC on an undirected graph, ...)
// rather than by the engine or its storage. Servers use it to separate
// client errors (4xx) from engine failures (5xx).
type BadRequestError struct {
	Err error
}

func (e *BadRequestError) Error() string { return e.Err.Error() }

// Unwrap lets errors.Is/As reach the underlying cause.
func (e *BadRequestError) Unwrap() error { return e.Err }

// errBatchDone signals that every run in a sweep batch finished (all
// canceled) mid-iteration: the sweep tore its pipeline down cleanly and
// there is nothing left to drive. It is a control-flow sentinel, not a
// failure — per-run outcomes live in each runState's err.
var errBatchDone = errors.New("core: every run in the batch finished")

// Engine runs tile algorithms over an on-disk graph with the SCR
// scheduler: it slides segment-sized batched reads over the needed tiles,
// overlapping I/O with processing; retires processed segments into the
// cache pool under the configured policy; and rewinds each iteration to
// consume the pool before issuing any I/O (Figure 8).
//
// One engine drives one sweep at a time, but a sweep may carry a whole
// batch of co-scheduled algorithm runs (see Scheduler): the fetched tile
// stream is planned over the union of the batch's selective-fetch sets
// and each fetched tile is dispatched once per interested run, so N
// concurrent queries share a single pass over the disk.
type Engine struct {
	g     *tile.Graph
	opts  Options
	array storage.Device
	mm    *mem.Manager

	// deltaStore, when set, layers WAL-backed mutations over the base
	// graph: every dispatched tile is merged with the store's current
	// view (deleted edges masked, inserted edges appended) and degree
	// queries see the overlay. The base tile files — and with them the
	// cache pool, checksums, and selective-fetch planning — stay
	// untouched.
	deltaStore *delta.Store

	work chan workItem
	wg   sync.WaitGroup
	// chunkBytes is Options.ChunkBytes rounded down to the graph's tuple
	// size (0 disables intra-tile chunking).
	chunkBytes int64
	workers    []workerStat

	// scratch holds the per-iteration planning state reused across
	// iterations and runs; only the (single) sweep driver touches it.
	scratch sweepScratch

	// unattributedBytes accumulates fetched tile bytes whose interested
	// runs all finished before dispatch: the I/O happened but no live run
	// was left to charge. Engine-lifetime counter; Run reports the delta
	// it observed in Stats.UnattributedBytes.
	unattributedBytes atomic.Int64

	// ra, when the device accepts hints, receives next-iteration tile
	// ranges (the NeedTileNextIter union) after each sweep; raBudget
	// caps the hinted bytes per iteration.
	ra       storage.Readaheader
	raBudget int64
}

// runState is one algorithm run riding a sweep batch: its kernel, its
// private statistics, and its position in its own iteration sequence
// (co-scheduled runs advance one algorithm iteration per shared sweep,
// each counting from its own join).
type runState struct {
	alg   algo.Algorithm
	ctx   context.Context
	stats *Stats
	iter  int

	// finished is set by iterate (convergence, cancellation, or a
	// sweep-fatal error); err is the run's outcome.
	finished bool
	err      error
	done     chan struct{}
	began    time.Time

	// Fractional attribution of shared I/O: a tile fetched for k
	// interested runs charges each of them 1/k of its bytes and requests.
	bytesFrac float64
	reqFrac   float64

	// adm snapshots the engine-wide counters when the run joins a sweep;
	// seal reports each as the delta since then.
	adm admission
}

// admission is the engine-wide counter snapshot a run takes when it joins
// a sweep. Co-scheduled runs overlap, so their windows overlap too: the
// deltas seal derives from it (worker busy time, injected faults,
// backend counters, unattributed bytes) include batch neighbours' work.
type admission struct {
	busy, chunks []int64
	ext          storage.ExtStats
	faults       storage.FaultStats
	unattributed int64
}

// prepare validates and initializes a for this engine's graph and wraps
// it in a fresh runState. Init failures come back as *BadRequestError.
func (e *Engine) prepare(ctx context.Context, a algo.Algorithm) (*runState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var degrees tile.DegreeSource
	if e.g.Meta.DegreeFormat != "" {
		var err error
		degrees, err = e.g.Degrees()
		if err != nil {
			return nil, err
		}
	}
	if e.deltaStore != nil {
		// The overlay reflects mutations applied before the run began;
		// later batches become visible at iteration boundaries through
		// the per-sweep view capture.
		degrees = e.deltaStore.View().Degrees(degrees)
	}
	actx := &algo.Context{
		NumVertices: e.g.Meta.NumVertices,
		Layout:      e.g.Layout,
		Directed:    e.g.Meta.Directed,
		Half:        e.g.Meta.Half,
		Codec:       e.g.Meta.TupleCodec(),
		Degrees:     degrees,
		Workers:     e.opts.Threads,
	}
	if err := a.Init(actx); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return &runState{
		alg:   a,
		ctx:   ctx,
		stats: &Stats{Algorithm: a.Name()},
		done:  make(chan struct{}),
		began: time.Now(),
	}, nil
}

// pollBatch marks canceled runs finished and reports how many runs are
// still live. It is the batch generalization of the solo ctx.Err() poll:
// one disconnected client leaves the sweep at the next poll point without
// disturbing its co-scheduled neighbors.
func pollBatch(batch []*runState) int {
	alive := 0
	for _, r := range batch {
		if r.finished {
			continue
		}
		if err := r.ctx.Err(); err != nil {
			r.finished = true
			r.err = fmt.Errorf("core: run canceled: %w", err)
			continue
		}
		alive++
	}
	return alive
}

// statEach applies f to every unfinished run's stats (shared sweep events
// like IO waits and retries are observed by every live run).
func statEach(batch []*runState, f func(*Stats)) {
	for _, r := range batch {
		if !r.finished {
			f(r.stats)
		}
	}
}

// workItem is one unit of compute: one tuple-aligned chunk of a tile (the
// whole tile when it fits in one chunk). The algorithm travels with the
// item so concurrent Run teardown can never leave a worker reading a
// stale engine-level field.
type workItem struct {
	alg  algo.Algorithm
	row  uint32
	col  uint32
	data []byte
	done *sync.WaitGroup
}

// workerStat is one worker's cumulative accounting, padded so neighboring
// workers never share a cache line on the hot path.
type workerStat struct {
	busyNS atomic.Int64
	chunks atomic.Int64
	_      [112]byte
}

// NewEngine creates an engine over g. The engine owns a storage array on
// the graph's tiles file and a memory manager sized by opts; Close
// releases both.
func NewEngine(g *tile.Graph, opts Options) (*Engine, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	// Every tile must fit in one segment, or it could never be staged.
	// (The paper's 256 MB segments comfortably exceed its tile sizes on
	// the evaluated graphs.) If the configured segments are too small but
	// the memory budget allows, grow them to the largest tile.
	maxTile := int64(0)
	for i := 0; i < g.Layout.NumTiles(); i++ {
		if _, n := g.TileByteRange(i); n > maxTile {
			maxTile = n
		}
	}
	if maxTile > opts.SegmentSize {
		if 2*maxTile > opts.MemoryBytes {
			return nil, fmt.Errorf("core: largest tile is %d bytes but the memory budget is %d; need at least two tile-sized segments",
				maxTile, opts.MemoryBytes)
		}
		opts.SegmentSize = maxTile
	}
	var array storage.Device
	var err error
	if opts.Backend == "file" {
		array, err = storage.NewFileDevice(g.TilesPath(), storage.FileOptions{
			Workers:   opts.IOWorkers,
			Direct:    opts.DirectIO,
			Bandwidth: opts.Bandwidth,
			Latency:   opts.Latency,
		})
	} else {
		array, err = storage.NewArray(g.TilesFile(), storage.Options{
			NumDisks:   opts.Disks,
			StripeSize: opts.StripeSize,
			Bandwidth:  opts.Bandwidth,
			Latency:    opts.Latency,
		})
	}
	if err != nil {
		return nil, err
	}
	if opts.HDD != nil && opts.HDD.Fraction > 0 {
		// Tiered store (paper §IX, future work): the trailing fraction of
		// the tiles file lives on simulated hard drives. The fast tier is
		// whichever backend was selected above.
		slow, err := storage.NewArray(g.TilesFile(), storage.Options{
			NumDisks:   opts.HDD.Disks,
			StripeSize: opts.StripeSize,
			Bandwidth:  opts.HDD.Bandwidth,
			Latency:    opts.HDD.Latency,
		})
		if err != nil {
			array.Close()
			return nil, err
		}
		boundary := int64(float64(g.DataBytes()) * (1 - opts.HDD.Fraction))
		tiered, err := storage.NewTiered(array, slow, boundary)
		if err != nil {
			array.Close()
			slow.Close()
			return nil, err
		}
		array = tiered
	}
	if opts.Fault != nil {
		faulty, err := storage.NewFaultDevice(array, *opts.Fault)
		if err != nil {
			array.Close()
			return nil, err
		}
		array = faulty
	}
	mman, err := mem.NewManager(opts.MemoryBytes, opts.SegmentSize)
	if err != nil {
		array.Close()
		return nil, err
	}
	e := &Engine{g: g, opts: opts, array: array, mm: mman}
	if ra, ok := array.(storage.Readaheader); ok {
		e.ra = ra
		e.raBudget = opts.ReadaheadBytes
		if e.raBudget == 0 && opts.Backend == "file" {
			e.raBudget = 8 << 20
		}
		if e.raBudget < 0 {
			e.raBudget = 0
		}
	}
	if cb := opts.ChunkBytes; cb > 0 {
		// Fixed-width codecs round the chunk size down to the tuple
		// alignment; v3 tiles (TupleBytes 0) split at decode-block
		// boundaries instead, so the size is used as-is.
		if tb := g.Meta.TupleBytes(); tb > 0 {
			cb -= cb % tb
			if cb < tb {
				cb = tb
			}
		}
		e.chunkBytes = cb
	}
	e.scratch.inCache = make(map[int]bool)
	e.workers = make([]workerStat, opts.Threads)
	e.work = make(chan workItem, opts.Threads*2)
	for i := 0; i < opts.Threads; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e, nil
}

// UnattributedBytes reports the engine-lifetime total of fetched tile
// bytes that could not be charged to any run (every interested run had
// finished by dispatch time).
func (e *Engine) UnattributedBytes() int64 { return e.unattributedBytes.Load() }

// SetDeltaStore attaches (or, with nil, detaches) a mutable delta layer.
// Must not be called while a run is in flight; the next sweep iteration
// picks up the store's current view.
func (e *Engine) SetDeltaStore(ds *delta.Store) { e.deltaStore = ds }

// DeltaStore returns the attached delta layer, if any.
func (e *Engine) DeltaStore() *delta.Store { return e.deltaStore }

// Close stops the workers and the storage array. The engine must not be
// running.
func (e *Engine) Close() {
	if e.work != nil {
		close(e.work)
		e.wg.Wait()
		e.work = nil
	}
	if e.array != nil {
		e.array.Close()
		e.array = nil
	}
}

// worker is one compute goroutine with a stable ID; kernels key their
// private accumulator slabs off it.
func (e *Engine) worker(id int) {
	defer e.wg.Done()
	ws := &e.workers[id]
	for item := range e.work {
		begin := time.Now()
		item.alg.ProcessTileChunk(id, item.row, item.col, item.data)
		ws.busyNS.Add(int64(time.Since(begin)))
		ws.chunks.Add(1)
		item.done.Done()
	}
}

// dispatch enqueues tile data as work items, one per chunkBytes-sized
// chunk — the load-balancing move that keeps all workers busy on a
// segment dominated by one dense tile. Returns the items enqueued.
func (e *Engine) dispatch(alg algo.Algorithm, ref mem.TileRef, done *sync.WaitGroup) int64 {
	if e.chunkBytes <= 0 || int64(len(ref.Data)) <= e.chunkBytes {
		done.Add(1)
		e.work <- workItem{alg: alg, row: ref.Row, col: ref.Col, data: ref.Data, done: done}
		return 1
	}
	views := ref.Chunks(e.chunkBytes)
	done.Add(len(views))
	for _, v := range views {
		e.work <- workItem{alg: alg, row: ref.Row, col: ref.Col, data: v, done: done}
	}
	return int64(len(views))
}

// dispatchTile fans one tile out to every interested, still-live run of
// the batch and updates their per-run counters. fetchedBytes > 0 marks a
// freshly fetched tile whose bytes are attributed fractionally across
// the interested runs; fetchedBytes == 0 marks a cache-pool hit. When
// every interested run finished between planning and dispatch, fetched
// bytes have nobody left to charge and land on the engine-level
// unattributed counter instead of vanishing.
func (e *Engine) dispatchTile(batch []*runState, mask uint64, ref mem.TileRef, fetchedBytes int64, done *sync.WaitGroup) error {
	share := 0
	for j := range batch {
		if mask&(1<<uint(j)) != 0 && !batch[j].finished {
			share++
		}
	}
	if share == 0 {
		if fetchedBytes > 0 {
			e.unattributedBytes.Add(fetchedBytes)
		}
		return nil
	}
	ref.Codec = e.g.Meta.TupleCodec()
	// Read-time merge: a tile with delta data is dispatched as
	// base∪delta — masked base tuples dropped, inserted tuples appended.
	// The merged buffer is fresh, so pooled cache bytes stay the pristine
	// (checksum-verified) base data and survive view changes.
	deltaTile := false
	if td := e.scratch.view.Tile(ref.DiskIdx); td != nil {
		rb, _ := e.g.Layout.VertexRange(ref.Row)
		cb, _ := e.g.Layout.VertexRange(ref.Col)
		merged, err := td.Merge(ref.Data, ref.Codec, e.g.Layout.TileBits, rb, cb)
		if err != nil {
			c := e.g.Layout.CoordAt(ref.DiskIdx)
			return &IntegrityError{
				Graph: e.g.Meta.Name, Tile: ref.DiskIdx, Row: c.Row, Col: c.Col,
				Err: err,
			}
		}
		ref.Data = merged
		deltaTile = true
	}
	for j, r := range batch {
		if mask&(1<<uint(j)) == 0 || r.finished {
			continue
		}
		r.stats.Chunks += e.dispatch(r.alg, ref, done)
		r.stats.TilesProcessed++
		if deltaTile {
			r.stats.DeltaTiles++
		}
		if fetchedBytes > 0 {
			r.stats.TilesFetched++
			r.bytesFrac += float64(fetchedBytes) / float64(share)
		} else {
			r.stats.TilesFromCache++
		}
	}
	return nil
}

// Run executes a on the graph until convergence and returns statistics.
//
// ctx cancels the run: it is checked between iterations and inside the
// slide loop's completion wait, so a disconnected client or a daemon
// shutdown stops the run within roughly one I/O completion. A canceled
// Run returns an error wrapping ctx.Err(), releases every segment it
// acquired, and leaves the engine reusable for the next Run.
//
// Errors caused by the algorithm's arguments (Init validation) are
// wrapped in *BadRequestError; an *IntegrityError comes back with the
// partial stats; everything else is an engine or storage failure.
//
// Run is the solo entry point: it drives the same iterate/seal pair as
// the Scheduler, in the caller's goroutine, with a batch of one. It must
// not be called concurrently with itself or with a Scheduler on the same
// engine; servers co-scheduling queries go through Scheduler.Run instead.
func (e *Engine) Run(ctx context.Context, a algo.Algorithm) (*Stats, error) {
	r, err := e.prepare(ctx, a)
	if err != nil {
		return nil, err
	}
	e.mm.Clear()
	e.admit(r)
	batch := []*runState{r}
	for !r.finished {
		e.iterate(batch)
	}
	e.seal(r)
	return r.outcome()
}

// admit takes r's admission snapshot; the caller is about to add r to
// the sweep batch.
func (e *Engine) admit(r *runState) {
	adm := &r.adm
	adm.busy = make([]int64, len(e.workers))
	adm.chunks = make([]int64, len(e.workers))
	for i := range e.workers {
		adm.busy[i] = e.workers[i].busyNS.Load()
		adm.chunks[i] = e.workers[i].chunks.Load()
	}
	adm.ext, _ = storage.ExtStatsOf(e.array)
	if fd, ok := e.array.(*storage.FaultDevice); ok {
		adm.faults = fd.FaultStats()
	}
	adm.unattributed = e.unattributedBytes.Load()
}

// iterate drives one SCR iteration for every live run of batch: the
// cancellation poll, BeforeIteration, the shared sweep, classification of
// its outcome, AfterIteration, and the convergence and MaxIterations
// checks. It is the only place a run's iteration sequence advances. A run
// that ends here is marked finished with its outcome in err; the caller
// seals it.
func (e *Engine) iterate(batch []*runState) {
	if pollBatch(batch) == 0 {
		return
	}
	for _, r := range batch {
		if !r.finished {
			r.alg.BeforeIteration(r.iter)
		}
	}
	var marks []traceMark
	if e.opts.Trace != nil {
		marks = make([]traceMark, len(batch))
		for j, r := range batch {
			marks[j] = traceMark{*r.stats, r.bytesFrac}
		}
	}
	if err := e.sweepIteration(batch); err != nil {
		if errors.Is(err, errBatchDone) {
			// Every run finished (canceled) mid-sweep; the outcomes are
			// on the runStates already.
			return
		}
		// Sweep-fatal: a storage or integrity failure poisons every run
		// that was riding the stream.
		var ie *IntegrityError
		integrity := errors.As(err, &ie)
		for _, r := range batch {
			if r.finished {
				continue
			}
			if integrity {
				r.stats.IntegrityErrors++
			}
			r.finished = true
			r.err = err
		}
		return
	}
	for j, r := range batch {
		if r.finished {
			continue
		}
		r.stats.Iterations = r.iter + 1
		converged := r.alg.AfterIteration(r.iter)
		if marks != nil {
			e.traceIteration(r, marks[j])
		}
		r.iter++
		if converged || r.iter >= e.opts.MaxIterations {
			r.finished = true
		}
	}
}

// traceMark is a run's counters at the start of a traced iteration.
type traceMark struct {
	stats     Stats
	bytesFrac float64
}

// traceIteration writes r's per-iteration event to Options.Trace.
func (e *Engine) traceIteration(r *runState, m traceMark) {
	st, before := r.stats, &m.stats
	metrics.WriteEvent(e.opts.Trace, "iteration",
		metrics.KV{Key: "algo", Value: r.alg.Name()},
		metrics.KV{Key: "iter", Value: r.iter},
		metrics.KV{Key: "tiles", Value: st.TilesProcessed - before.TilesProcessed},
		metrics.KV{Key: "cached", Value: st.TilesFromCache - before.TilesFromCache},
		metrics.KV{Key: "skipped", Value: st.TilesSkipped - before.TilesSkipped},
		metrics.KV{Key: "read_bytes", Value: int64(math.Round(r.bytesFrac - m.bytesFrac))},
		metrics.KV{Key: "iowait", Value: (st.IOWait - before.IOWait).Round(time.Microsecond)},
		metrics.KV{Key: "compute", Value: (st.Compute - before.Compute).Round(time.Microsecond)},
		metrics.KV{Key: "pool_used", Value: e.mm.PoolUsed()},
		metrics.KV{Key: "pool_cap", Value: e.mm.PoolCap()})
}

// seal finalizes a finished run's statistics, whatever its outcome:
// elapsed time, memory and storage state, its fractional share of the
// I/O, and every engine-wide counter as the delta since its admission.
func (e *Engine) seal(r *runState) {
	st, adm := r.stats, &r.adm
	st.Elapsed = time.Since(r.began)
	st.MetadataBytes = r.alg.MetadataBytes()
	st.Mem = e.mm.Stats()
	st.Storage = e.array.Stats()
	st.BytesRead = int64(math.Round(r.bytesFrac))
	st.IORequests = int64(math.Round(r.reqFrac))
	st.UnattributedBytes = e.unattributedBytes.Load() - adm.unattributed
	if ext, ok := storage.ExtStatsOf(e.array); ok {
		st.IO = ext.Sub(adm.ext)
	}
	if fd, ok := e.array.(*storage.FaultDevice); ok {
		st.Faults = fd.FaultStats().Sub(adm.faults)
	}
	st.WorkerBusy = make([]time.Duration, len(e.workers))
	st.WorkerChunks = make([]int64, len(e.workers))
	var busySum, busyMax time.Duration
	for i := range e.workers {
		d := time.Duration(e.workers[i].busyNS.Load() - adm.busy[i])
		st.WorkerBusy[i] = d
		st.WorkerChunks[i] = e.workers[i].chunks.Load() - adm.chunks[i]
		busySum += d
		busyMax = max(busyMax, d)
	}
	if busySum > 0 {
		st.Imbalance = float64(busyMax) / (float64(busySum) / float64(len(e.workers)))
	}
}

// outcome is what a sealed run returns to its caller: the stats on
// success, the partial stats alongside an *IntegrityError (so the
// verification counters still reach metrics), and no stats otherwise.
func (r *runState) outcome() (*Stats, error) {
	var ie *IntegrityError
	if r.err != nil && !errors.As(r.err, &ie) {
		return nil, r.err
	}
	return r.stats, r.err
}

// sweepScratch is the per-iteration planning state, reused across
// iterations (and across runs on a reused engine) so the Run hot loop
// stays allocation-free once warm: the union need set and its interest
// masks, the in-cache filter, pooled segment plans, the inflight queue
// and its retry counters, the completion buffer, and the tile-ref /
// request staging slices.
type sweepScratch struct {
	needed    []int
	masks     []uint64
	fetch     []int
	fetchMask []uint64
	inCache   map[int]bool
	// view is the delta snapshot captured at the top of the current
	// sweep iteration (nil without a delta store); dispatchTile merges
	// it into every tile it fans out, so mutations become visible at
	// iteration boundaries and never mid-iteration.
	view *delta.View

	plans  []*segmentPlan
	nplans int

	queue    []inflight
	attempts []int
	comps    []storage.Completion
	refs     []mem.TileRef
	reqVals  []storage.Request
	reqPtrs  []*storage.Request
}

// nextPlan hands out a pooled (or fresh) segment plan with empty tile and
// run lists.
func (sc *sweepScratch) nextPlan() *segmentPlan {
	if sc.nplans < len(sc.plans) {
		p := sc.plans[sc.nplans]
		p.tiles = p.tiles[:0]
		p.runs = p.runs[:0]
		sc.nplans++
		return p
	}
	p := &segmentPlan{}
	sc.plans = append(sc.plans, p)
	sc.nplans++
	return p
}

// sweepIteration performs one shared SCR iteration for a batch of runs:
// union selective-fetch planning, rewind over the cache pool (each cached
// tile dispatched once per interested run), then the slide over the union
// of the remaining tiles.
//
// It returns nil on success, errBatchDone when every run finished
// (canceled) mid-sweep, or a sweep-fatal error (storage or integrity
// failure) that the driver must apply to every unfinished run.
func (e *Engine) sweepIteration(batch []*runState) error {
	sc := &e.scratch
	layout := e.g.Layout
	sc.view = nil
	if e.deltaStore != nil {
		sc.view = e.deltaStore.View()
	}
	sc.needed = sc.needed[:0]
	sc.masks = sc.masks[:0]
	for i := 0; i < layout.NumTiles(); i++ {
		if e.g.TupleCount(i) == 0 {
			continue
		}
		c := layout.CoordAt(i)
		var mask uint64
		for j, r := range batch {
			if r.finished {
				continue
			}
			if e.opts.Selective && !r.alg.NeedTileThisIter(c.Row, c.Col) {
				r.stats.TilesSkipped++
				continue
			}
			mask |= 1 << uint(j)
		}
		if mask == 0 {
			continue
		}
		sc.needed = append(sc.needed, i)
		sc.masks = append(sc.masks, mask)
	}

	// Rewind (§VI-D): process everything already cached before any I/O.
	clear(sc.inCache)
	if cached := e.mm.CachedTiles(); e.opts.Cache != CacheNone && len(cached) > 0 {
		var done sync.WaitGroup
		cs := time.Now()
		for _, ref := range cached {
			pos := indexSorted(sc.needed, ref.DiskIdx)
			if pos < 0 {
				continue
			}
			sc.inCache[ref.DiskIdx] = true
			if err := e.dispatchTile(batch, sc.masks[pos], ref, 0, &done); err != nil {
				done.Wait()
				return err
			}
		}
		done.Wait()
		el := time.Since(cs)
		statEach(batch, func(st *Stats) { st.Compute += el })
	}

	// Delta-only tiles hold inserted edges in tiles the base graph left
	// empty; there is nothing to fetch for them, so they are dispatched
	// here alongside the rewind (their data is wholly in memory).
	if v := sc.view; v.NumTiles() > 0 {
		var done sync.WaitGroup
		cs := time.Now()
		for _, di := range v.TileIndexes() {
			if e.g.TupleCount(di) != 0 {
				continue // merged on the rewind/slide paths
			}
			c := layout.CoordAt(di)
			var mask uint64
			for j, r := range batch {
				if r.finished {
					continue
				}
				if e.opts.Selective && !r.alg.NeedTileThisIter(c.Row, c.Col) {
					r.stats.TilesSkipped++
					continue
				}
				mask |= 1 << uint(j)
			}
			if mask == 0 {
				continue
			}
			if err := e.dispatchTile(batch, mask, mem.TileRef{DiskIdx: di, Row: c.Row, Col: c.Col}, 0, &done); err != nil {
				done.Wait()
				return err
			}
		}
		done.Wait()
		el := time.Since(cs)
		statEach(batch, func(st *Stats) { st.Compute += el })
	}

	sc.fetch = sc.fetch[:0]
	sc.fetchMask = sc.fetchMask[:0]
	for k, di := range sc.needed {
		if !sc.inCache[di] {
			sc.fetch = append(sc.fetch, di)
			sc.fetchMask = append(sc.fetchMask, sc.masks[k])
		}
	}
	if err := e.slide(batch, sc.fetch, sc.fetchMask); err != nil {
		return err
	}
	e.hintReadahead(batch)
	return nil
}

// hintReadahead advises the storage device about the tiles the next
// iteration will fetch: the union of NeedTileNextIter across the
// batch's live runs, minus tiles already pooled (the rewind serves
// those without I/O). Adjacent tiles merge into one sequential hint;
// the total is capped by raBudget so a whole-graph interest set cannot
// flood the page cache.
func (e *Engine) hintReadahead(batch []*runState) {
	if e.ra == nil || e.raBudget <= 0 {
		return
	}
	layout := e.g.Layout
	budget := e.raBudget
	var curOff, curN int64
	flush := func() {
		if curN > 0 {
			e.ra.Readahead(curOff, curN)
			curN = 0
		}
	}
	for i := 0; i < layout.NumTiles() && budget > 0; i++ {
		if e.g.TupleCount(i) == 0 {
			continue
		}
		if e.mm.CachedData(i) != nil {
			flush()
			continue
		}
		c := layout.CoordAt(i)
		want := false
		for _, r := range batch {
			if !r.finished && r.alg.NeedTileNextIter(c.Row, c.Col) {
				want = true
				break
			}
		}
		if !want {
			flush()
			continue
		}
		off, n := e.g.TileByteRange(i)
		if n > budget {
			n = budget
		}
		budget -= n
		if curN > 0 && curOff+curN == off {
			curN += n
		} else {
			flush()
			curOff, curN = off, n
		}
	}
	flush()
}

// indexSorted returns the position of x in the ascending slice, or -1.
func indexSorted(sorted []int, x int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case sorted[mid] < x:
			lo = mid + 1
		case sorted[mid] > x:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// plannedTile is one tile's slot within a segment load. mask records
// which runs of the current batch want the tile (bit j = batch[j]).
type plannedTile struct {
	diskIdx  int
	row, col uint32
	bufOff   int64
	n        int64
	mask     uint64
}

// segmentPlan is one segment's worth of tiles plus the contiguous byte
// runs that load them. Gaps between runs come from selective fetching and
// cache hits; all of a plan's runs are submitted as one AIO batch (§V-B:
// "these I/Os would be merged into a single AIO system call").
type segmentPlan struct {
	tiles []plannedTile
	runs  []run
}

type run struct {
	fileOff int64
	bufOff  int64
	n       int64
}

// planSegments packs the tiles to fetch, in disk order, into
// segment-sized plans. masks carries the per-tile run-interest bits
// aligned with toFetch; nil means a single-run batch (every bit-0). The
// returned plans are pooled in the engine's scratch and are invalidated
// by the next planSegments call.
func (e *Engine) planSegments(toFetch []int, masks []uint64) []*segmentPlan {
	sc := &e.scratch
	sc.nplans = 0
	var cur *segmentPlan
	var used int64
	for k, di := range toFetch {
		off, n := e.g.TileByteRange(di)
		if cur != nil && used+n > e.opts.SegmentSize {
			cur = nil
		}
		if cur == nil {
			cur = sc.nextPlan()
			used = 0
		}
		mask := uint64(1)
		if masks != nil {
			mask = masks[k]
		}
		c := e.g.Layout.CoordAt(di)
		cur.tiles = append(cur.tiles, plannedTile{
			diskIdx: di, row: c.Row, col: c.Col, bufOff: used, n: n, mask: mask,
		})
		if last := len(cur.runs) - 1; last >= 0 &&
			cur.runs[last].fileOff+cur.runs[last].n == off &&
			cur.runs[last].bufOff+cur.runs[last].n == used {
			cur.runs[last].n += n
		} else {
			cur.runs = append(cur.runs, run{fileOff: off, bufOff: used, n: n})
		}
		used += n
	}
	return sc.plans[:sc.nplans]
}

// inflight is one submitted segment load: its buffer, its plan, and the
// retry ledger for its outstanding runs.
type inflight struct {
	seg      *mem.Segment
	plan     *segmentPlan
	left     int   // outstanding runs
	attempts []int // retry attempts per run
}

// slide is the pipelined stream of Figure 8: one segment loads while the
// other is processed; processed segments retire into the cache pool. Each
// loaded tile is dispatched once per interested run of the batch, so
// co-scheduled queries consume a single tile stream.
//
// Error handling: a failed or short read is re-submitted with capped
// exponential backoff up to Options.MaxRetries times before it fails the
// sweep (and with it every run of the batch). Every error path drains the
// in-flight completions it owns and releases every acquired segment, so a
// failed sweep leaves the engine reusable: the next sweep starts with
// both streaming buffers free and an empty completion stream.
//
// Cancellation: every run's ctx is polled before each completion wait, so
// a canceled run leaves the batch within one I/O completion; the sweep
// itself tears down (errBatchDone) only when no live run remains.
func (e *Engine) slide(batch []*runState, toFetch []int, masks []uint64) error {
	plans := e.planSegments(toFetch, masks)
	if len(plans) == 0 {
		return nil
	}
	sc := &e.scratch

	// The inflight queue is pre-sized to the plan count so taking
	// &queue[i] stays valid across appends; the retry ledgers slice one
	// shared arena.
	if cap(sc.queue) < len(plans) {
		sc.queue = make([]inflight, 0, len(plans))
	}
	queue := sc.queue[:0]
	totalRuns := 0
	for _, p := range plans {
		totalRuns += len(p.runs)
	}
	if cap(sc.attempts) < totalRuns {
		sc.attempts = make([]int, totalRuns)
	}
	attemptArena := sc.attempts[:totalRuns]
	for i := range attemptArena {
		attemptArena[i] = 0
	}
	arenaUsed := 0

	var (
		next        int
		outstanding int // async requests in flight across the whole queue
	)

	// fail tears the pipeline down after err: it consumes every
	// completion still owed to us and returns the segments held by the
	// not-yet-retired tail of the queue (entries before head were
	// released when they retired).
	fail := func(head int, err error) error {
		for outstanding > 0 {
			comps := e.array.Wait(1, sc.comps[:0])
			if len(comps) == 0 {
				break // device closed; nothing further will arrive
			}
			outstanding -= len(comps)
		}
		for i := head; i < len(queue); i++ {
			e.mm.Release(queue[i].seg)
		}
		return err
	}

	submit := func() error {
		if next >= len(plans) {
			return nil
		}
		s := e.mm.Acquire()
		if s == nil {
			return nil // both buffers busy; the loop resubmits later
		}
		p := plans[next]
		next++
		queue = append(queue, inflight{
			seg: s, plan: p, left: len(p.runs),
			attempts: attemptArena[arenaUsed : arenaUsed+len(p.runs)],
		})
		arenaUsed += len(p.runs)
		qi := len(queue) - 1
		fl := &queue[qi]
		if e.opts.SyncIO {
			ws := time.Now()
			defer func() {
				d := time.Since(ws)
				statEach(batch, func(st *Stats) { st.IOWait += d })
			}()
			for _, r := range p.runs {
				if err := e.readSyncRetry(batch, r, s); err != nil {
					return err
				}
			}
			fl.left = 0
			return nil
		}
		if cap(sc.reqVals) < len(p.runs) {
			sc.reqVals = make([]storage.Request, len(p.runs))
			sc.reqPtrs = make([]*storage.Request, len(p.runs))
		}
		reqs := sc.reqPtrs[:len(p.runs)]
		for i, r := range p.runs {
			sc.reqVals[i] = storage.Request{
				Offset: r.fileOff,
				Buf:    s.Buf[r.bufOff : r.bufOff+r.n],
				Tag:    int64(qi)<<32 | int64(i),
			}
			reqs[i] = &sc.reqVals[i]
		}
		if err := e.array.Submit(reqs); err != nil {
			return err
		}
		outstanding += len(reqs)
		return nil
	}

	// handle consumes one completion, retrying failed and short reads in
	// place (the re-submitted request keeps its tag, so it still counts
	// toward the same segment's outstanding runs).
	handle := func(c storage.Completion) error {
		outstanding--
		qi, ri := int(c.Tag>>32), int(c.Tag&0xffffffff)
		fl := &queue[qi]
		r := fl.plan.runs[ri]
		err := c.Err
		if err == nil && int64(c.N) < r.n {
			err = fmt.Errorf("core: short read: %d of %d bytes at offset %d", c.N, r.n, r.fileOff)
		}
		if err == nil {
			fl.left--
			return nil
		}
		statEach(batch, func(st *Stats) { st.IOFailures++ })
		if fl.attempts[ri] >= e.opts.MaxRetries {
			return fmt.Errorf("core: tile read failed after %d attempts: %w", fl.attempts[ri]+1, err)
		}
		fl.attempts[ri]++
		statEach(batch, func(st *Stats) { st.Retries++ })
		if err := e.backoff(batch, fl.attempts[ri]); err != nil {
			return err
		}
		req := &storage.Request{
			Offset: r.fileOff,
			Buf:    fl.seg.Buf[r.bufOff : r.bufOff+r.n],
			Tag:    c.Tag,
		}
		if err := e.array.Submit([]*storage.Request{req}); err != nil {
			return err
		}
		outstanding++
		return nil
	}

	// Prime the double buffer: two loads in flight.
	for i := 0; i < 2; i++ {
		if err := submit(); err != nil {
			return fail(0, err)
		}
	}

	comps := sc.comps
	for head := 0; head < len(queue); head++ {
		fl := &queue[head]
		ws := time.Now()
		for fl.left > 0 {
			if pollBatch(batch) == 0 {
				d := time.Since(ws)
				statEach(batch, func(st *Stats) { st.IOWait += d })
				return fail(head, errBatchDone)
			}
			comps = e.array.Wait(1, comps[:0])
			if len(comps) == 0 {
				d := time.Since(ws)
				statEach(batch, func(st *Stats) { st.IOWait += d })
				return fail(head, fmt.Errorf("core: storage closed during run"))
			}
			for ci, c := range comps {
				if err := handle(c); err != nil {
					// The rest of this batch was already received off the
					// completion stream; count it before draining.
					outstanding -= len(comps) - ci - 1
					d := time.Since(ws)
					statEach(batch, func(st *Stats) { st.IOWait += d })
					sc.comps = comps
					return fail(head, err)
				}
			}
		}
		d := time.Since(ws)
		statEach(batch, func(st *Stats) { st.IOWait += d })
		sc.comps = comps

		// Verify the segment's tiles against their recorded checksums
		// before any worker sees the data (no-op on v1 graphs).
		if err := e.verifySegment(batch, fl.plan, fl.seg); err != nil {
			return fail(head, err)
		}

		// Register the loaded tiles and hand them to the workers; kick
		// off the next load first so I/O overlaps compute (the slide).
		if cap(sc.refs) < len(fl.plan.tiles) {
			sc.refs = make([]mem.TileRef, 0, len(fl.plan.tiles))
		}
		refs := sc.refs[:0]
		for _, pt := range fl.plan.tiles {
			refs = append(refs, mem.TileRef{
				DiskIdx: pt.diskIdx, Row: pt.row, Col: pt.col,
				Data: fl.seg.Buf[pt.bufOff : pt.bufOff+pt.n],
			})
		}
		fl.seg.SetTiles(refs)

		if err := submit(); err != nil {
			return fail(head, err)
		}

		// Shared-read request attribution: the plan's AIO batch is
		// charged fractionally to the runs it served.
		planMask := uint64(0)
		for _, pt := range fl.plan.tiles {
			planMask |= pt.mask
		}
		interested := 0
		for j, r := range batch {
			if planMask&(1<<uint(j)) != 0 && !r.finished {
				interested++
			}
		}
		if interested > 0 {
			frac := float64(len(fl.plan.runs)) / float64(interested)
			for j, r := range batch {
				if planMask&(1<<uint(j)) != 0 && !r.finished {
					r.reqFrac += frac
				}
			}
		}

		var done sync.WaitGroup
		cs := time.Now()
		for ti, ref := range refs {
			if err := e.dispatchTile(batch, fl.plan.tiles[ti].mask, ref, fl.plan.tiles[ti].n, &done); err != nil {
				done.Wait()
				ce := time.Since(cs)
				statEach(batch, func(st *Stats) { st.Compute += ce })
				return fail(head, err)
			}
		}
		done.Wait()
		ce := time.Since(cs)
		statEach(batch, func(st *Stats) { st.Compute += ce })

		e.retire(batch, fl.seg)
		// Retiring freed a buffer; make sure the pipeline stays primed.
		if err := submit(); err != nil {
			return fail(head+1, err)
		}
	}
	return nil
}

// readSyncRetry performs one synchronous run read with the same
// retry/backoff policy the async path uses, polling the batch's contexts
// between attempts.
func (e *Engine) readSyncRetry(batch []*runState, r run, s *mem.Segment) error {
	for attempt := 0; ; attempt++ {
		if pollBatch(batch) == 0 {
			return errBatchDone
		}
		err := e.array.ReadSync(r.fileOff, s.Buf[r.bufOff:r.bufOff+r.n])
		if err == nil {
			return nil
		}
		statEach(batch, func(st *Stats) { st.IOFailures++ })
		if attempt >= e.opts.MaxRetries {
			return fmt.Errorf("core: tile read failed after %d attempts: %w", attempt+1, err)
		}
		statEach(batch, func(st *Stats) { st.Retries++ })
		if err := e.backoff(batch, attempt+1); err != nil {
			return err
		}
	}
}

// backoff pauses before the attempt'th retry (1-based): RetryBackoff
// doubled per attempt, capped at RetryBackoffMax.
//
// With a single live run the sleep is a timer select against that run's
// ctx, so a canceled solo run never blocks a retry out — an unconditional
// time.Sleep here would stall the whole completion loop for up to
// RetryBackoffMax per retry after the client is gone. With several live
// runs one client's cancellation must not abort the shared retry, so the
// sweep sleeps the (capped, ≤RetryBackoffMax) delay and picks
// cancellations up at the next poll point.
func (e *Engine) backoff(batch []*runState, attempt int) error {
	var sole *runState
	alive := 0
	for _, r := range batch {
		if !r.finished {
			alive++
			sole = r
		}
	}
	if alive == 0 {
		return errBatchDone
	}
	d := e.opts.RetryBackoff
	if d <= 0 {
		if pollBatch(batch) == 0 {
			return errBatchDone
		}
		return nil
	}
	for i := 1; i < attempt && d < e.opts.RetryBackoffMax; i++ {
		d *= 2
	}
	if max := e.opts.RetryBackoffMax; max > 0 && d > max {
		d = max
	}
	if alive > 1 {
		time.Sleep(d)
		if pollBatch(batch) == 0 {
			return errBatchDone
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-sole.ctx.Done():
		sole.finished = true
		sole.err = fmt.Errorf("core: run canceled during retry backoff: %w", sole.ctx.Err())
		return errBatchDone
	}
}

// retire moves a processed segment toward the cache pool according to the
// configured policy. Under proactive caching the keep predicate is the
// union of NeedTileNextIter across the batch's live runs, so a tile stays
// pooled as long as any co-scheduled query predicts a use for it.
func (e *Engine) retire(batch []*runState, s *mem.Segment) {
	switch e.opts.Cache {
	case CacheNone:
		e.mm.Release(s)
	case CacheLRU:
		// Retire skips tiles the pool already holds (a rewind can
		// re-stream pooled tiles), so only the uncached tiles need room.
		// Sizing by the whole segment would evict cached tiles to make
		// space nothing will use.
		var need int64
		for _, t := range s.Tiles() {
			if e.mm.CachedData(t.DiskIdx) == nil {
				need += int64(len(t.Data))
			}
		}
		e.mm.EvictOldest(need)
		e.mm.Retire(s, nil)
	default: // CacheProactive
		keep := func(ref mem.TileRef) bool {
			for _, r := range batch {
				if !r.finished && r.alg.NeedTileNextIter(ref.Row, ref.Col) {
					return true
				}
			}
			return false
		}
		if !e.mm.WouldFit(segBytes(s)) {
			// Cache analysis happens when the pool is full (Figure 8,
			// time Ti): evict tiles no live algorithm will need again.
			e.mm.Evict(keep)
		}
		e.mm.Retire(s, keep)
	}
}

func segBytes(s *mem.Segment) int64 {
	var n int64
	for _, t := range s.Tiles() {
		n += int64(len(t.Data))
	}
	return n
}
