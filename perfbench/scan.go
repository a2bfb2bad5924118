package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// scanConfig sizes a scan workload: solo library runs of BFS from a few
// roots in the giant component, PageRank at a fixed iteration count,
// and WCC.
type scanConfig struct {
	scale   uint
	codec   string // snb or v3
	backend string // sim or file
	// throttle slows the simulated array to the paper's disk-bound
	// regime (8 disks at 16 MB/s and 100 µs each).
	throttle bool
	// memFrac is the engine memory budget over the tile bytes; at 1 or
	// more the cache pool alone holds every tile.
	memFrac   float64
	roots     int
	prIters   int
	setupReps int
}

var (
	scanOOC = scanConfig{scale: 18, codec: "snb", backend: "sim", throttle: true,
		memFrac: 0.25, roots: 3, prIters: 5, setupReps: 3}
	scanResident = scanConfig{scale: 18, codec: "v3", backend: "file",
		memFrac: 1, roots: 3, prIters: 5, setupReps: 3}
)

func clamp(v, lo, hi int64) int64 { return max(lo, min(v, hi)) }

// engineOptions sizes the engine for a graph of data tile bytes.
func engineOptions(data int64, memFrac float64, backend string, throttle bool) core.Options {
	o := core.DefaultOptions()
	o.Backend = backend
	o.SegmentSize = clamp(data/32, 64<<10, 16<<20)
	if memFrac >= 1 {
		// The pool is the budget less the two streaming segments, so this
		// leaves two segments of slack beyond every tile.
		o.MemoryBytes = int64(memFrac*float64(data)) + 4*o.SegmentSize
	} else {
		o.MemoryBytes = max(int64(memFrac*float64(data)), 4*o.SegmentSize)
	}
	if throttle {
		o.Disks = 8
		o.StripeSize = storage.DefaultStripeSize
		o.Bandwidth = 16 << 20
		o.Latency = 100 * time.Microsecond
	}
	return o
}

// scanOracle holds the reference results every scan run is checked
// against.
type scanOracle struct {
	roots  []uint32
	depths [][]int32
	ranks  []float64
	labels []uint32
}

func newScanOracle(el *graph.EdgeList, cfg scanConfig, seed uint64) *scanOracle {
	labels := graph.RefWCC(el)
	orc := &scanOracle{
		roots:  pickRoots(giantComponent(labels), cfg.roots, rngFor(seed, purposeRoots)),
		labels: labels,
	}
	csr := graph.NewCSR(el, false)
	for _, r := range orc.roots {
		orc.depths = append(orc.depths, graph.RefBFS(csr, r))
	}
	orc.ranks = graph.RefPageRank(csr, graph.DefaultPageRank(cfg.prIters))
	return orc
}

// scanRun is one timed library run.
type scanRun struct {
	alg  string
	key  string // alg, plus the root for BFS: runs with one key do the same work
	wall time.Duration
	st   *core.Stats
	rt   runTrace
}

// scanPhase is one measured phase: whole rounds, each running BFS from
// every root, then PageRank, then WCC.
type scanPhase struct {
	runs   []scanRun
	rounds int
	cpu    time.Duration
	mem    memUse
	memTo  mem.Stats // the engine's memory-manager totals after the phase
}

// typical is the median wall time of the runs of alg that do the same
// work, averaged over the different works (the BFS roots), so every
// root weighs the same whatever its cost.
func (p *scanPhase) typical(alg string) float64 {
	byKey := map[string][]float64{}
	for _, r := range p.runs {
		if r.alg == alg {
			byKey[r.key] = append(byKey[r.key], r.wall.Seconds())
		}
	}
	var medians []float64
	for _, walls := range byKey {
		medians = append(medians, median(walls))
	}
	return mean(medians)
}

// scanBench is a set-up scan workload.
type scanBench struct {
	cfg  scanConfig
	g    *tile.Graph
	eng  *core.Engine
	opts core.Options
	orc  *scanOracle
	out  *outcome
}

// runScan sets the workload up several times (set-up is measured as the
// median), runs the measured phase, and with tracing a traced phase of
// the same rounds plus the layer replays.
func runScan(cfg scanConfig, o options) (*outcome, error) {
	dir, err := workDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &scanBench{cfg: cfg, out: newOutcome()}
	defer func() {
		if b.eng != nil {
			b.eng.Close()
			b.g.Close()
		}
	}()

	var setups []float64
	var el *graph.EdgeList
	for rep := 0; rep < cfg.setupReps; rep++ {
		if b.eng != nil {
			b.eng.Close()
			b.g.Close()
			b.eng = nil
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", rep-1)))
		}
		// Set-up is what a user pays before the first query: generating
		// the input, converting it to tiles, and opening an engine over
		// them. Scans need no warm-up: every Engine.Run starts with an
		// empty pool, so the first timed run is like any other.
		d, err := timeIt(func() error {
			var err error
			if el, err = generate(cfg.scale); err != nil {
				return err
			}
			sub := filepath.Join(dir, fmt.Sprintf("setup%d", rep))
			if b.g, err = tile.Convert(el, sub, "g", convertOptions(cfg.scale, cfg.codec)); err != nil {
				return err
			}
			b.opts = engineOptions(b.g.DataBytes(), cfg.memFrac, cfg.backend, cfg.throttle)
			b.eng, err = core.NewEngine(b.g, b.opts)
			if err != nil {
				b.g.Close()
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	b.out.set("setup_s", median(setups), "s")
	b.orc = newScanOracle(el, cfg, o.seed)
	el = nil // let the measured phase's memory peak exclude the input

	until := time.Duration(o.seconds * float64(time.Second))
	timed := b.phase(until, 0, nil)
	b.reportEndToEnd(timed)
	if !o.trace {
		return b.out, nil
	}

	tr := newTracer()
	traced := b.phase(0, timed.rounds, tr)
	b.reportLayers(timed, traced)
	if err := replayLayers(b.out, b.g, b.opts, nil); err != nil {
		return nil, err
	}
	path, err := tr.write(filepath.Join(o.work, "traces"), fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("# trace: %s (%d spans dropped)\n", path, tr.dropped)
	return b.out, nil
}

// phase runs whole rounds until the wall time reaches until (at least
// one round), or exactly rounds rounds when rounds > 0. With a tracer
// every run is wrapped and spanned.
func (b *scanBench) phase(until time.Duration, rounds int, tr *tracer) *scanPhase {
	p := &scanPhase{}
	sampler := startMemSampler()
	cpu0 := cpuTime()
	begin := time.Now()
	for (rounds > 0 && p.rounds < rounds) || (rounds == 0 && (p.rounds == 0 || time.Since(begin) < until)) {
		for i, root := range b.orc.roots {
			bfs := algo.NewBFS(root)
			want := b.orc.depths[i]
			b.run(p, tr, bfs, func() error { return checkDepths(bfs.Depths(), want) })
		}
		pr := algo.NewPageRank(b.cfg.prIters)
		b.run(p, tr, pr, func() error { return checkRanks(pr.Ranks(), b.orc.ranks) })
		wcc := algo.NewWCC()
		b.run(p, tr, wcc, func() error { return checkLabels(wcc.Labels(), b.orc.labels) })
		p.rounds++
	}
	p.cpu = cpuTime() - cpu0
	p.mem = sampler.finish()
	if len(p.runs) > 0 {
		p.memTo = p.runs[len(p.runs)-1].st.Mem
	}
	return p
}

// run times one solo engine run and checks its output. An engine error
// or a wrong output counts as a failed operation, and the run is left
// out of the timings.
func (b *scanBench) run(p *scanPhase, tr *tracer, a algo.Algorithm, check func() error) {
	runA := a
	var runID, start int64
	if tr != nil {
		runID = tr.id()
		runA = tr.traceAlg(a, b.g, runID)
		start = tr.now()
	}
	begin := time.Now()
	st, err := b.eng.Run(context.Background(), runA)
	wall := time.Since(begin)
	b.out.attempted++
	r := scanRun{alg: a.Name(), key: a.Name(), wall: wall, st: st}
	if bfs, ok := a.(*algo.BFS); ok {
		r.key = fmt.Sprintf("bfs:%d", bfs.Root)
	}
	if tr != nil {
		tr.add(span{Name: "run." + a.Name(), ID: runID, Start: start, End: tr.now()})
		r.rt = unwrapTraced(runA).finish()
	}
	if err != nil {
		b.out.mismatch("%s run: %v", a.Name(), err)
		return
	}
	if err := check(); err != nil {
		b.out.mismatch("%s: %v", a.Name(), err)
		return
	}
	p.runs = append(p.runs, r)
}

func (b *scanBench) reportEndToEnd(p *scanPhase) {
	o := b.out
	o.set("bfs_s", p.typical("bfs"), "s")
	o.set("pagerank_s", p.typical("pagerank"), "s")
	o.set("wcc_s", p.typical("wcc"), "s")
	o.set("cpu_s", p.cpu.Seconds()/float64(p.rounds), "s")
	o.set("peak_rss_mib", p.mem.peakResident, "MiB")
	o.set("peak_heap_mib", p.mem.peakLive, "MiB")
	o.set("heap_mib", p.mem.meanLive, "MiB")
	o.set("error_rate", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	o.set("rounds", float64(p.rounds), "count")
}

// reportLayers derives the per-layer metrics of the traced phase, per
// round, and the tracing overhead against the untraced phase.
func (b *scanBench) reportLayers(timed, traced *scanPhase) {
	o := b.out
	per := 1 / float64(traced.rounds)
	var sum struct {
		bytes, reqs, spans, fetched, cached, iters, processed, skipped, verified, chunks, edges int64
		ioWait, compute                                                                         time.Duration
		queueWait, batched, shared                                                              []float64
	}
	var rts []runTrace
	for _, r := range traced.runs {
		st := r.st
		sum.bytes += st.BytesRead
		sum.reqs += st.IORequests
		sum.spans += st.IO.Spans
		sum.fetched += st.TilesFetched
		sum.cached += st.TilesFromCache
		sum.iters += int64(st.Iterations)
		sum.processed += st.TilesProcessed
		sum.skipped += st.TilesSkipped
		sum.verified += st.TilesVerified
		sum.chunks += st.Chunks
		sum.ioWait += st.IOWait
		sum.compute += st.Compute
		sum.queueWait = append(sum.queueWait, float64(st.QueueWait)/1e6)
		sum.batched = append(sum.batched, float64(st.BatchedRoots))
		sum.shared = append(sum.shared, float64(st.SharedRuns))
		sum.edges += r.rt.edges
		rts = append(rts, r.rt)
	}
	o.set("storage.bytes_read", float64(sum.bytes)*per, "bytes")
	o.set("storage.requests", float64(sum.reqs)*per, "count")
	o.set("storage.spans", float64(sum.spans)*per, "count")
	o.set("storage.bytes_per_edge_processed", ratio(float64(sum.bytes), float64(sum.edges)), "bytes")
	o.set("mem.tiles_fetched", float64(sum.fetched)*per, "count")
	o.set("mem.tiles_from_cache", float64(sum.cached)*per, "count")
	o.set("mem.pool_hit_ratio", ratio(float64(sum.cached), float64(sum.cached+sum.fetched)), "ratio")
	o.set("mem.evicted_tiles", float64(traced.memTo.EvictedTiles-timed.memTo.EvictedTiles)*per, "count")
	o.set("mem.copied_bytes", float64(traced.memTo.CopiedBytes-timed.memTo.CopiedBytes)*per, "bytes")
	o.set("mem.budget_over_tile_bytes", float64(b.opts.MemoryBytes)/float64(b.g.DataBytes()), "ratio")
	o.set("core.iterations", float64(sum.iters)*per, "count")
	o.set("core.tiles_processed", float64(sum.processed)*per, "count")
	o.set("core.tiles_skipped", float64(sum.skipped)*per, "count")
	o.set("core.io_wait_s", sum.ioWait.Seconds()*per, "s")
	o.set("core.compute_s", sum.compute.Seconds()*per, "s")
	o.set("core.queue_wait_p99_ms", quantile(sum.queueWait, 0.99), "ms")
	o.set("core.batched_roots_mean", mean(sum.batched), "count")
	o.set("core.shared_runs_mean", mean(sum.shared), "count")
	o.set("core.coalesced_runs", 0, "count")
	o.set("tile.tiles_verified", float64(sum.verified)*per, "count")
	o.set("algo.chunks", float64(sum.chunks)*per, "count")
	reportRunTraces(o, rts, per)
	// The scans never write: the write path, result cache and server
	// layers are idle by construction.
	for _, n := range []string{"delta.tiles", "delta.ins_tuples", "delta.merged_tiles",
		"wal.appends", "wal.fsyncs", "qcache.hits", "qcache.misses", "qcache.joins",
		"qcache.invalidations", "server.requests", "server.status_429", "server.status_5xx"} {
		o.set(n, 0, "count")
	}
	o.set("wal.fsync_ms_p50", 0, "ms")
	o.set("wal.fsync_ms_p99", 0, "ms")
	o.set("wal.bytes_per_user_byte", 0, "ratio")
	o.set("qcache.hit_ratio", 0, "ratio")
	o.set("loadgen.max_lag_ms", 0, "ms")

	o.set("trace.overhead_bfs_s", traced.typical("bfs")-timed.typical("bfs"), "s")
	o.set("trace.overhead_pagerank_s", traced.typical("pagerank")-timed.typical("pagerank"), "s")
	o.set("trace.overhead_cpu_s", (traced.cpu.Seconds()-timed.cpu.Seconds())*per, "s")
}
