package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/server"
	"github.com/gwu-systems/gstore/internal/tile"
)

// opMix is the share of each request kind in the open loop.
type opMix struct{ bfs, ppr, pagerank, edges float64 }

// serveConfig sizes the serving workload.
type serveConfig struct {
	scale   uint
	memFrac float64
	// rate is the nominal offered load in requests per second; the
	// end-to-end latencies are measured at it.
	rate float64
	// ladder holds the higher offered rates tried, each for rungFrac of
	// --seconds, to find read_qps_at_slo.
	ladder   []float64
	rungFrac float64
	// sloMS is the read p99 limit of read_qps_at_slo.
	sloMS       float64
	mix         opMix
	insertBatch int
	// maxInflight caps requests in flight; arrivals beyond it are
	// dropped and count as failed.
	maxInflight int
	window      time.Duration
	qcacheBytes int64
	iters       int // PageRank and PPR iterations
	gateRoots   int
	setupReps   int
	// The nominal phase runs as probeBlocks equal segments of the open
	// loop; after each segment drains, BFS and PageRank requests are
	// sent alternating and one at a time for probeFrac×--seconds /
	// probeBlocks (at least one pair per block). Spreading the probes
	// over the whole run keeps a short stall of the host from moving
	// their median. probes is the number of BFS probe roots, cycled.
	probeBlocks int
	probeFrac   float64
	probes      int
}

var serveMixed = serveConfig{
	scale: 16, memFrac: 0.5,
	rate: 12, ladder: []float64{18, 24}, rungFrac: 0.15, sloMS: 500,
	mix:         opMix{bfs: 0.70, ppr: 0.15, pagerank: 0.05, edges: 0.10},
	insertBatch: 16, maxInflight: 64,
	window: 10 * time.Millisecond, qcacheBytes: 8 << 20,
	iters: 5, gateRoots: 3, setupReps: 3,
	probeBlocks: 5, probeFrac: 0.4, probes: 64,
}

type opKind int

const (
	opBFS opKind = iota
	opPPR
	opPageRank
	opEdges
)

var opNames = [...]string{"bfs", "ppr", "pagerank", "edges"}

// op is one scheduled request.
type op struct {
	due   time.Duration // from the start of the phase
	kind  opKind
	root  uint32
	edges [][2]uint32
}

// buildSchedule draws a Poisson arrival schedule of rate requests per
// second over dur, conditioned on its expected count: rate×dur arrival
// times uniform over dur (the arrival times of a Poisson process given
// its count), carrying the mix's exact share of each request kind in a
// seeded order. Fixing the count and shares keeps the work of a phase
// the same for every seed, so seeds differ in timing and targets only.
// Read roots follow Zipf(1.1) over roots (Zipf rank i reads roots[i]);
// inserted edges are uniform random.
func buildSchedule(cfg serveConfig, rate float64, dur time.Duration, rng *rand.Rand, roots []uint32, nv uint32) []op {
	n := int(rate*dur.Seconds() + 0.5)
	kinds := make([]opKind, 0, n)
	for k, share := range []float64{cfg.mix.bfs, cfg.mix.ppr, cfg.mix.pagerank, cfg.mix.edges} {
		for i := 0; i < int(share*float64(n)+0.5) && len(kinds) < n; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, opBFS)
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(dues)

	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(roots)-1))
	sched := make([]op, n)
	for i, k := range kinds {
		o := op{due: time.Duration(dues[i] * float64(time.Second)), kind: k}
		switch k {
		case opBFS, opPPR:
			o.root = roots[zipf.Uint64()]
		case opEdges:
			for len(o.edges) < cfg.insertBatch {
				s, d := uint32(rng.Intn(int(nv))), uint32(rng.Intn(int(nv)))
				if s != d {
					o.edges = append(o.edges, [2]uint32{s, d})
				}
			}
		}
		sched[i] = o
	}
	return sched
}

// request builds the HTTP request for o against graph "g".
func (cfg serveConfig) request(ctx context.Context, o op) *http.Request {
	var r *http.Request
	switch o.kind {
	case opBFS:
		r = httptest.NewRequest(http.MethodGet, "/graphs/g/bfs?root="+strconv.FormatUint(uint64(o.root), 10), nil)
	case opPPR:
		r = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/graphs/g/ppr?root=%d&iterations=%d&top=10", o.root, cfg.iters), nil)
	case opPageRank:
		r = httptest.NewRequest(http.MethodPost, "/graphs/g/pagerank", strings.NewReader(fmt.Sprintf(`{"iterations":%d,"top":10}`, cfg.iters)))
	case opEdges:
		var b strings.Builder
		b.WriteString(`{"edges":[`)
		for i, e := range o.edges {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"src":%d,"dst":%d}`, e[0], e[1])
		}
		b.WriteString(`]}`)
		r = httptest.NewRequest(http.MethodPost, "/graphs/g/edges", strings.NewReader(b.String()))
	}
	return r.WithContext(ctx)
}

// reqResult is one request's outcome.
type reqResult struct {
	kind    opKind
	latency time.Duration // from its due time to its completion
	status  int           // 0 when dropped at the in-flight cap
}

func (r reqResult) ok() bool { return r.status >= 200 && r.status < 300 }

// loadResult is one open-loop phase.
type loadResult struct {
	rate    float64
	reqs    []reqResult
	maxLag  time.Duration // how late the generator sent a request
	drain   time.Duration // last completion after the last due time
	acked   [][2]uint32   // edges of acknowledged write batches
	batches int           // acknowledged write batches
	cpu     time.Duration
	mem     memUse
	// retainedMiB is the live heap left once the loop drained: the
	// server with its pool, delta and result cache.
	retainedMiB float64
	probe       probeResult // the one-at-a-time requests between segments
}

// probeResult holds the one-at-a-time requests sent between segments of
// the open loop: latencies in ms of uncached BFS and of PageRank
// requests.
type probeResult struct {
	bfsMS, pagerankMS []float64
}

// merge adds a later segment of the same phase to lr.
func (lr *loadResult) merge(seg *loadResult) {
	lr.reqs = append(lr.reqs, seg.reqs...)
	lr.maxLag = max(lr.maxLag, seg.maxLag)
	lr.drain = max(lr.drain, seg.drain)
	lr.acked = append(lr.acked, seg.acked...)
	lr.batches += seg.batches
	lr.cpu += seg.cpu
	lr.mem.peakResident = max(lr.mem.peakResident, seg.mem.peakResident)
	lr.mem.peakLive = max(lr.mem.peakLive, seg.mem.peakLive)
	lr.mem.meanLive += seg.mem.meanLive
	lr.retainedMiB = seg.retainedMiB
}

// drainTimeout bounds the wait for in-flight requests after the last
// arrival; requests still running then are canceled and count as failed.
const drainTimeout = 20 * time.Second

// runLoad drives h with the schedule as an open loop: each request is
// sent at its due time from its own goroutine, whatever the server's
// state, unless maxInflight requests are already in flight.
func runLoad(cfg serveConfig, h http.Handler, sched []op, rate float64, tr *tracer) *loadResult {
	lr := &loadResult{rate: rate, reqs: make([]reqResult, len(sched))}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		lastDone atomic.Int64
	)
	sampler := startMemSampler()
	cpu0 := cpuTime()
	begin := time.Now()
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	for i, o := range sched {
		if d := time.Until(begin.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		lr.maxLag = max(lr.maxLag, time.Since(begin)-o.due)
		if inflight.Load() >= int64(cfg.maxInflight) {
			lr.reqs[i] = reqResult{kind: o.kind}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, o op) {
			defer wg.Done()
			defer inflight.Add(-1)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, cfg.request(ctx, o))
			end := time.Since(begin)
			lr.reqs[i] = reqResult{kind: o.kind, latency: end - o.due, status: rec.Code}
			for {
				last := lastDone.Load()
				if int64(end) <= last || lastDone.CompareAndSwap(last, int64(end)) {
					break
				}
			}
			if tr != nil {
				tr.add(span{Name: "http." + opNames[o.kind], ID: tr.id(),
					Start: t0 + int64(o.due), End: t0 + int64(end), N: int64(rec.Code)})
			}
		}(i, o)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		cancel()
		<-done
	}
	lr.cpu = cpuTime() - cpu0
	lr.mem = sampler.finish()
	lr.retainedMiB = retainedHeapMiB()
	if len(sched) > 0 {
		lr.drain = time.Duration(lastDone.Load()) - sched[len(sched)-1].due
	}
	for i, o := range sched {
		if o.kind == opEdges && lr.reqs[i].ok() {
			lr.acked = append(lr.acked, o.edges...)
			lr.batches++
		}
	}
	return lr
}

// latencies returns the latencies in ms of the successful requests of
// the given kinds.
func (lr *loadResult) latencies(kinds ...opKind) []float64 {
	var out []float64
	for _, r := range lr.reqs {
		for _, k := range kinds {
			if r.kind == k && r.ok() {
				out = append(out, float64(r.latency)/1e6)
			}
		}
	}
	return out
}

// failures counts requests that were dropped or answered non-2xx.
func (lr *loadResult) failures() (failed, status429, status5xx int64) {
	for _, r := range lr.reqs {
		if !r.ok() {
			failed++
		}
		switch {
		case r.status == http.StatusTooManyRequests:
			status429++
		case r.status >= 500:
			status5xx++
		}
	}
	return
}

// meetsSLO reports whether reads met the p99 limit with no failures and
// no backlog left when the rung ended.
func (lr *loadResult) meetsSLO(cfg serveConfig) bool {
	failed, _, _ := lr.failures()
	p99 := quantile(lr.latencies(opBFS, opPPR), 0.99)
	return failed == 0 && p99 <= cfg.sloMS && float64(lr.drain)/1e6 <= cfg.sloMS
}

// serveBench is one serving workload run.
type serveBench struct {
	cfg       serveConfig
	o         options
	el        *graph.EdgeList
	data      int64 // tile bytes
	opts      core.Options
	roots     []uint32 // giant component by descending degree: Zipf rank -> root
	gateRoots []uint32
	// probeRoots are the roots of the one-at-a-time BFS probes.
	probeRoots []uint32
	nv         uint32
	stored     int64 // stored tuples of the graph
	tiles      int
	out        *outcome
	// Filled by the traced gate for the per-layer report.
	gateTrace []runTrace
	deltaSt   delta.Stats
}

// setUp converts the generated graph into sub and serves that fresh copy
// under the name "g", with the result cache, the coalescing window and
// the write path (through fs; nil is the real filesystem) on. One
// warm-up PageRank makes the first measured request find the tiles file
// in the page cache like every later one.
func (b *serveBench) setUp(sub string, fs faultfs.FS) (*server.Server, string, error) {
	g, err := tile.Convert(b.el, sub, "g", convertOptions(b.cfg.scale, "snb"))
	if err != nil {
		return nil, "", err
	}
	b.data, b.stored, b.tiles = g.DataBytes(), g.Meta.NumStored, g.Layout.NumTiles()
	base := g.BasePath()
	g.Close()
	b.opts = engineOptions(b.data, b.cfg.memFrac, "file", false)
	b.opts.BatchWindow = b.cfg.window
	srv := server.New()
	srv.QCacheBytes = b.cfg.qcacheBytes
	srv.QCacheTTL = time.Minute
	srv.DeltaFS = fs
	if err := srv.AddGraph("g", base, b.opts); err != nil {
		srv.Close()
		return nil, "", err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs/g/pagerank", strings.NewReader(`{"iterations":1,"top":1}`)))
	if rec.Code != http.StatusOK {
		srv.Close()
		return nil, "", fmt.Errorf("warm-up pagerank: status %d: %s", rec.Code, rec.Body.String())
	}
	return srv, base, nil
}

func runServe(cfg serveConfig, o options) (*outcome, error) {
	dir, err := workDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &serveBench{cfg: cfg, o: o, out: newOutcome()}

	var srv *server.Server
	var base string
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if srv != nil {
			srv.Close()
			os.RemoveAll(filepath.Dir(base))
		}
		d, err := timeIt(func() error {
			var err error
			if b.el, err = generate(cfg.scale); err != nil {
				return err
			}
			srv, base, err = b.setUp(filepath.Join(dir, fmt.Sprintf("setup%d", rep)), nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	b.out.set("setup_s", median(setups), "s")
	b.prepare()

	dur := time.Duration(o.seconds * float64(time.Second))
	sched := b.schedule(cfg.rate, dur, 0)
	timed := b.runProbed(srv.Handler(), sched, dur, nil)
	rungs := []*loadResult{timed}
	if !o.trace {
		for i, rate := range cfg.ladder {
			rd := time.Duration(float64(dur) * cfg.rungFrac)
			rungs = append(rungs, runLoad(cfg, srv.Handler(), b.schedule(rate, rd, i+1), rate, nil))
		}
	}
	srv.Close()
	b.count(rungs...)
	if err := b.gate(base, rungs, nil, nil); err != nil {
		return nil, err
	}
	b.reportEndToEnd(timed, rungs)
	if !o.trace {
		return b.out, nil
	}

	// The traced run serves a fresh copy of the graph the same schedule,
	// with WAL writes and fsyncs timed through the server's DeltaFS.
	tr := newTracer()
	tfs := newTimingFS(tr)
	srv, base, err = b.setUp(filepath.Join(dir, "traced"), tfs)
	if err != nil {
		return nil, err
	}
	before, err := scrapeMetrics(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	traced := b.runProbed(srv.Handler(), sched, dur, tr)
	after, err := scrapeMetrics(srv.Handler())
	srv.Close()
	if err != nil {
		return nil, err
	}
	b.count(traced)
	replay := func(g *tile.Graph, ds *delta.Store) error {
		b.deltaSt = ds.Stats()
		return replayLayers(b.out, g, b.opts, ds.View())
	}
	if err := b.gate(base, []*loadResult{traced}, tr, replay); err != nil {
		return nil, err
	}
	b.reportLayers(timed, traced, after.sub(before), tr, tfs)
	path, err := tr.write(filepath.Join(o.work, "traces"), fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("# trace: %s (%d spans dropped)\n", path, tr.dropped)
	return b.out, nil
}

// runProbed runs the nominal phase: the schedule over dur as
// probeBlocks open-loop segments of equal length, each drained and
// followed by a block of probes on the graph as the loop left it (delta
// included). CPU time and the open-loop results cover the segments
// only; the memory means are averaged over them.
func (b *serveBench) runProbed(h http.Handler, sched []op, dur time.Duration, tr *tracer) *loadResult {
	k := b.cfg.probeBlocks
	seg := dur / time.Duration(k)
	block := time.Duration(b.cfg.probeFrac * float64(dur) / float64(k))
	var lr *loadResult
	next := 0
	for i := 0; i < k; i++ {
		var part []op
		for _, o := range sched {
			if d := o.due - time.Duration(i)*seg; d >= 0 && (d < seg || i == k-1) {
				o.due = d
				part = append(part, o)
			}
		}
		r := runLoad(b.cfg, h, part, b.cfg.rate, tr)
		if lr == nil {
			lr = r
		} else {
			lr.merge(r)
		}
		next = b.probe(h, tr, block, next, &lr.probe)
	}
	lr.mem.meanLive /= float64(k)
	return lr
}

// probe sends POST /bfs requests (uncached solo BFS from the probe
// roots, cycled from index next) alternating with POST /pagerank
// requests, one at a time, until d has passed and at least one of each
// was sent. With no other request in flight their latencies follow the
// service time, not the arrival pattern. A failed probe counts as
// failed. It returns the index of the next root.
func (b *serveBench) probe(h http.Handler, tr *tracer, d time.Duration, next int, pr *probeResult) int {
	send := func(name string, r *http.Request) float64 {
		rec := httptest.NewRecorder()
		var start int64
		if tr != nil {
			start = tr.now()
		}
		begin := time.Now()
		h.ServeHTTP(rec, r)
		d := time.Since(begin)
		if tr != nil {
			tr.add(span{Name: "probe." + name, ID: tr.id(), Start: start, End: tr.now(), N: int64(rec.Code)})
		}
		b.out.attempted++
		if rec.Code != http.StatusOK {
			b.out.mismatch("%s probe: status %d: %s", name, rec.Code, rec.Body.String())
			return -1
		}
		return float64(d) / 1e6
	}
	end := time.Now().Add(d)
	for first := true; first || time.Now().Before(end); first = false {
		root := b.probeRoots[next%len(b.probeRoots)]
		next++
		body := strings.NewReader(fmt.Sprintf(`{"root":%d}`, root))
		if ms := send("bfs", httptest.NewRequest(http.MethodPost, "/graphs/g/bfs", body)); ms >= 0 {
			pr.bfsMS = append(pr.bfsMS, ms)
		}
		if ms := send("pagerank", b.cfg.request(context.Background(), op{kind: opPageRank})); ms >= 0 {
			pr.pagerankMS = append(pr.pagerankMS, ms)
		}
	}
	return next
}

// prepare ranks the read roots by popularity and draws the gate roots.
func (b *serveBench) prepare() {
	giant := giantComponent(graph.RefWCC(b.el))
	// Popularity follows degree: the most-queried vertices are the best
	// connected ones. The ranking is a property of the graph, so every
	// seed draws from the same popularity law and seeds differ only in
	// the draws.
	deg := make([]int, b.el.NumVertices)
	for _, e := range b.el.Edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	b.roots = append([]uint32(nil), giant...)
	sort.SliceStable(b.roots, func(i, j int) bool { return deg[b.roots[i]] > deg[b.roots[j]] })
	b.gateRoots = pickRoots(giant, b.cfg.gateRoots, rngFor(b.o.seed, purposeGateRoots))
	b.probeRoots = pickRoots(giant, b.cfg.probes, rngFor(b.o.seed, purposeProbeRoots))
	b.nv = b.el.NumVertices
}

func (b *serveBench) schedule(rate float64, dur time.Duration, rung int) []op {
	return buildSchedule(b.cfg, rate, dur, rngFor(b.o.seed, purposeSchedule+int64(rung)), b.roots, b.nv)
}

// count adds the phases' requests to the attempted and failed totals.
func (b *serveBench) count(phases ...*loadResult) {
	for _, lr := range phases {
		failed, _, _ := lr.failures()
		b.out.attempted += int64(len(lr.reqs))
		b.out.failed += failed
	}
}

// gate checks the write path after the server closed: the delta store
// reopened on the graph copy must recover exactly the acknowledged
// write batches, and BFS from the gate roots over base ∪ delta must
// equal the reference BFS over the base edges plus every acknowledged
// insert. With a tracer the BFS runs are traced; beforeRuns, when set,
// sees the recovered store before any run merges a tile.
func (b *serveBench) gate(base string, phases []*loadResult, tr *tracer, beforeRuns func(*tile.Graph, *delta.Store) error) error {
	g, err := tile.Open(base)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	defer g.Close()
	ds, err := delta.Open(g, base, delta.Options{})
	if err != nil {
		return fmt.Errorf("gate: reopening the delta store: %w", err)
	}
	defer ds.Close()

	full := &graph.EdgeList{NumVertices: b.el.NumVertices, Edges: append([]graph.Edge(nil), b.el.Edges...)}
	batches := 0
	for _, lr := range phases {
		batches += lr.batches
		for _, e := range lr.acked {
			full.Edges = append(full.Edges, graph.Edge{Src: e[0], Dst: e[1]})
		}
	}
	b.out.attempted++
	if seq := ds.Stats().Seq; seq != uint64(batches) {
		b.out.mismatch("gate: recovered seq %d, want %d acknowledged write batches", seq, batches)
	}
	if beforeRuns != nil {
		if err := beforeRuns(g, ds); err != nil {
			return err
		}
	}

	eng, err := core.NewEngine(g, b.opts)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	defer eng.Close()
	eng.SetDeltaStore(ds)
	csr := graph.NewCSR(full, false)
	for _, root := range b.gateRoots {
		bfs := algo.NewBFS(root)
		var a algo.Algorithm = bfs
		if tr != nil {
			a = tr.traceAlg(bfs, g, tr.id())
		}
		_, err := eng.Run(context.Background(), a)
		if tr != nil {
			b.gateTrace = append(b.gateTrace, unwrapTraced(a).finish())
		}
		b.out.attempted++
		if err != nil {
			b.out.mismatch("gate: bfs from %d: %v", root, err)
			continue
		}
		if err := checkDepths(bfs.Depths(), graph.RefBFS(csr, root)); err != nil {
			b.out.mismatch("gate: bfs from %d on base ∪ acked inserts: %v", root, err)
		}
	}
	return nil
}

func (b *serveBench) reportEndToEnd(timed *loadResult, rungs []*loadResult) {
	o := b.out
	reads := timed.latencies(opBFS, opPPR)
	o.set("bfs_s", median(timed.probe.bfsMS)/1e3, "s")
	o.set("pagerank_s", median(timed.probe.pagerankMS)/1e3, "s")
	o.set("read_bfs_p50_ms", median(timed.latencies(opBFS)), "ms")
	o.set("read_p50_ms", median(reads), "ms")
	o.set("read_p99_ms", quantile(reads, 0.99), "ms")
	o.set("read_samples", float64(len(reads)), "count")
	o.set("analytic_p50_ms", median(timed.latencies(opPageRank)), "ms")
	o.set("write_p50_ms", median(timed.latencies(opEdges)), "ms")
	o.set("write_p99_ms", quantile(timed.latencies(opEdges), 0.99), "ms")
	o.set("cpu_s", timed.cpu.Seconds(), "s")
	o.set("peak_rss_mib", timed.mem.peakResident, "MiB")
	o.set("peak_heap_mib", timed.mem.peakLive, "MiB")
	o.set("heap_mib", timed.retainedMiB, "MiB")
	o.set("loop_heap_mib", timed.mem.meanLive, "MiB")
	o.set("error_rate", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	o.set("loadgen.max_lag_ms", float64(timed.maxLag)/1e6, "ms")
	readShare := b.cfg.mix.bfs + b.cfg.mix.ppr
	best := 0.0
	for _, lr := range rungs {
		if lr.meetsSLO(b.cfg) {
			best = max(best, lr.rate*readShare)
		}
		o.set(fmt.Sprintf("rung_%g.read_p99_ms", lr.rate), quantile(lr.latencies(opBFS, opPPR), 0.99), "ms")
	}
	if len(rungs) > 1 {
		o.set("read_qps_at_slo", best, "1/s")
	}
}

// reportLayers derives the per-layer metrics: counter deltas from
// /metrics over the traced phase, WAL spans from the timing filesystem,
// kernel and iteration spans from the traced gate runs.
func (b *serveBench) reportLayers(timed, traced *loadResult, m metricSet, tr *tracer, tfs *timingFS) {
	o := b.out
	processed := m.sum("gstore_engine_tiles_processed_total")
	cached := m.sum("gstore_engine_tiles_from_cache_total")
	bytes := m.sum("gstore_storage_bytes_read_total")
	o.set("storage.bytes_read", bytes, "bytes")
	o.set("storage.requests", m.sum("gstore_storage_requests_total"), "count")
	o.set("storage.spans", m.sum("gstore_storage_spans_total"), "count")
	o.set("mem.tiles_fetched", processed-cached, "count")
	o.set("mem.tiles_from_cache", cached, "count")
	o.set("mem.pool_hit_ratio", ratio(cached, processed), "ratio")
	o.set("mem.evicted_tiles", m.sum("gstore_mem_evicted_tiles_total"), "count")
	o.set("mem.copied_bytes", m.sum("gstore_mem_copied_bytes_total"), "bytes")
	o.set("mem.budget_over_tile_bytes", float64(b.opts.MemoryBytes)/float64(b.data), "ratio")
	o.set("core.iterations", m.sum("gstore_engine_iterations_total"), "count")
	o.set("core.tiles_processed", processed, "count")
	o.set("core.tiles_skipped", m.sum("gstore_engine_tiles_skipped_total"), "count")
	o.set("core.io_wait_s", m.sum("gstore_engine_iowait_microseconds_total")/1e6, "s")
	o.set("core.compute_s", m.sum("gstore_engine_compute_microseconds_total")/1e6, "s")
	o.set("core.queue_wait_p99_ms", m.histQuantile("gstore_run_queue_wait_seconds", 0.99)*1e3, "ms")
	o.set("core.batched_roots_mean", m.histMean("gstore_personal_batched_roots"), "count")
	o.set("core.shared_runs_mean", m.histMean("gstore_run_batch_occupancy"), "count")
	o.set("core.coalesced_runs", m.sum("gstore_personal_coalesced_runs_total"), "count")
	o.set("tile.tiles_verified", m.sum("gstore_engine_tiles_verified_total"), "count")
	o.set("algo.chunks", m.sum("gstore_engine_chunks_total"), "count")
	o.set("delta.tiles", float64(b.deltaSt.DeltaTiles), "count")
	o.set("delta.ins_tuples", float64(b.deltaSt.InsTuples), "count")
	o.set("delta.merged_tiles", m.sum("gstore_engine_delta_tiles_total"), "count")
	o.set("wal.appends", m.sum("gstore_wal_appends_total"), "count")
	hits, misses, joins := m.sum("gstore_qcache_hits_total"), m.sum("gstore_qcache_misses_total"), m.sum("gstore_qcache_joins_total")
	o.set("qcache.hits", hits, "count")
	o.set("qcache.misses", misses, "count")
	o.set("qcache.joins", joins, "count")
	o.set("qcache.invalidations", m.sum("gstore_qcache_invalidations_total"), "count")
	o.set("qcache.hit_ratio", ratio(hits, hits+misses+joins), "ratio")

	// Tuples behind the processed tiles, estimated from the mean tile:
	// the scheduler path reports tiles, not edges.
	meanTile := float64(b.stored) / float64(b.tiles)
	o.set("storage.bytes_per_edge_processed", ratio(bytes, processed*meanTile), "bytes")

	fsyncs := tr.durationsMS("wal.fsync")
	o.set("wal.fsyncs", float64(len(fsyncs)), "count")
	o.set("wal.fsync_ms_p50", median(fsyncs), "ms")
	o.set("wal.fsync_ms_p99", quantile(fsyncs, 0.99), "ms")
	// A user byte is one inserted edge's two 4-byte endpoints.
	o.set("wal.bytes_per_user_byte", ratio(float64(tfs.walBytes.Load()), float64(8*len(traced.acked))), "ratio")

	reportRunTraces(o, b.gateTrace, 1)

	_, s429, s5xx := traced.failures()
	o.set("server.requests", float64(len(traced.reqs)), "count")
	o.set("server.status_429", float64(s429), "count")
	o.set("server.status_5xx", float64(s5xx), "count")
	o.set("loadgen.max_lag_ms", float64(traced.maxLag)/1e6, "ms")

	o.set("trace.overhead_bfs_s", (median(traced.probe.bfsMS)-median(timed.probe.bfsMS))/1e3, "s")
	o.set("trace.overhead_pagerank_s", (median(traced.probe.pagerankMS)-median(timed.probe.pagerankMS))/1e3, "s")
	o.set("trace.overhead_cpu_s", traced.cpu.Seconds()-timed.cpu.Seconds(), "s")
}

// metricSet is a parsed /metrics exposition: value by series (name
// plus rendered labels).
type metricSet map[string]float64

// scrapeMetrics reads the server's /metrics through its handler.
func scrapeMetrics(h http.Handler) (metricSet, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", rec.Code)
	}
	m := metricSet{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// sub returns the per-series difference m - prev.
func (m metricSet) sub(prev metricSet) metricSet {
	out := metricSet{}
	for k, v := range m {
		out[k] = v - prev[k]
	}
	return out
}

// seriesName is the metric name of a series key.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// sum adds every series of the named metric, whatever its labels.
func (m metricSet) sum(name string) float64 {
	total := 0.0
	for k, v := range m {
		if seriesName(k) == name {
			total += v
		}
	}
	return total
}

// histMean is a histogram's mean observation: _sum over _count.
func (m metricSet) histMean(name string) float64 {
	return ratio(m.sum(name+"_sum"), m.sum(name+"_count"))
}

// histQuantile estimates a histogram quantile by linear interpolation
// inside the bucket that holds it (the last finite bound for +Inf).
func (m metricSet) histQuantile(name string, q float64) float64 {
	cum := map[float64]float64{}
	for k, v := range m {
		if seriesName(k) != name+"_bucket" {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4 : i+4+strings.IndexByte(k[i+4:], '"')]
		bound := 1e300
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		cum[bound] += v
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	prevBound, prevCum := 0.0, 0.0
	for _, bd := range bounds {
		if cum[bd] >= target {
			if bd == 1e300 {
				return prevBound
			}
			return prevBound + (bd-prevBound)*ratio(target-prevCum, cum[bd]-prevCum)
		}
		prevBound, prevCum = bd, cum[bd]
	}
	return prevBound
}
