package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/tile"
)

// span is one traced interval. Spans of one request or run share the
// root's ID through Parent links; N carries a size (edges, bytes, HTTP
// status) whose meaning depends on Name.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the spans one run keeps; later spans are counted as
// dropped instead of growing memory without limit.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	room := maxSpans - len(t.spans)
	if room < len(s) {
		t.dropped += int64(len(s) - max(room, 0))
		s = s[:max(room, 0)]
	}
	t.spans = append(t.spans, s...)
}

// durationsMS returns the durations in ms of the spans named name.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// tracedAlg wraps an algorithm handed to Engine.Run: it records an
// iteration span from BeforeIteration to the end of AfterIteration and
// one kernel span per ProcessTile call, and counts the base tuples of
// every distinct tile an iteration processed.
type tracedAlg struct {
	algo.Algorithm
	tr    *tracer
	g     *tile.Graph
	runID int64

	iterID    int64
	iterStart int64
	seen      []atomic.Bool
	edges     atomic.Int64

	iters  []span     // this run's iteration spans
	mu     sync.Mutex // guards serial, the kernel spans of ProcessTile
	serial []span
	// perWorker holds ProcessTileChunk spans by worker ID: the engine
	// never runs two calls with one ID at once, so no lock is needed.
	perWorker [][]span
}

// tracedChunked is tracedAlg for algorithms that implement
// ProcessTileChunk. The wrapper must offer the chunked entry point only
// when the inner algorithm does, or the engine would dispatch the wrapped
// run differently and the trace would measure another program.
type tracedChunked struct {
	*tracedAlg
	chunked algo.ChunkedAlgorithm
}

// traceAlg wraps a for one traced run whose span is runID.
func (t *tracer) traceAlg(a algo.Algorithm, g *tile.Graph, runID int64) algo.Algorithm {
	ta := &tracedAlg{Algorithm: a, tr: t, g: g, runID: runID, seen: make([]atomic.Bool, g.Layout.NumTiles())}
	if c, ok := a.(algo.ChunkedAlgorithm); ok {
		return &tracedChunked{tracedAlg: ta, chunked: c}
	}
	return ta
}

// unwrapTraced returns the tracedAlg behind a traceAlg result.
func unwrapTraced(a algo.Algorithm) *tracedAlg {
	switch t := a.(type) {
	case *tracedChunked:
		return t.tracedAlg
	case *tracedAlg:
		return t
	}
	return nil
}

func (a *tracedAlg) Init(ctx *algo.Context) error {
	a.perWorker = make([][]span, ctx.Workers)
	return a.Algorithm.Init(ctx)
}

func (a *tracedAlg) BeforeIteration(iter int) {
	a.iterID = a.tr.id()
	a.iterStart = a.tr.now()
	for i := range a.seen {
		a.seen[i].Store(false)
	}
	a.Algorithm.BeforeIteration(iter)
}

func (a *tracedAlg) AfterIteration(iter int) bool {
	done := a.Algorithm.AfterIteration(iter)
	a.iters = append(a.iters, span{Name: "iteration", ID: a.iterID, Parent: a.runID, Start: a.iterStart, End: a.tr.now(), N: int64(iter)})
	return done
}

// count adds the tile's base tuples the first time an iteration sees it.
func (a *tracedAlg) count(row, col uint32) {
	di := a.g.Layout.DiskIndex(row, col)
	if di >= 0 && di < len(a.seen) && !a.seen[di].Swap(true) {
		a.edges.Add(a.g.TupleCount(di))
	}
}

func (a *tracedAlg) ProcessTile(row, col uint32, data []byte) {
	start := a.tr.now()
	a.Algorithm.ProcessTile(row, col, data)
	s := span{Name: "kernel", ID: a.tr.id(), Parent: a.iterID, Worker: -1, Start: start, End: a.tr.now(), N: int64(len(data))}
	a.count(row, col)
	a.mu.Lock()
	a.serial = append(a.serial, s)
	a.mu.Unlock()
}

func (c *tracedChunked) ProcessTileChunk(worker int, row, col uint32, data []byte) {
	a := c.tracedAlg
	start := a.tr.now()
	c.chunked.ProcessTileChunk(worker, row, col, data)
	s := span{Name: "kernel", ID: a.tr.id(), Parent: a.iterID, Worker: worker, Start: start, End: a.tr.now(), N: int64(len(data))}
	a.count(row, col)
	a.perWorker[worker] = append(a.perWorker[worker], s)
}

// runTrace summarizes one finished traced run.
type runTrace struct {
	kernel    time.Duration // summed kernel span time
	edges     int64         // base tuples of the tiles processed
	imbalance float64       // max/mean kernel time over workers; 0 unknown
	iterMS    []float64     // iteration span durations
	selfMS    []float64     // iteration time not covered by kernel spans
}

// finish moves the run's kernel spans into the tracer and summarizes
// the run: kernel time, worker balance and iteration self time.
func (a *tracedAlg) finish() runTrace {
	var rt runTrace
	kernels := append([]span(nil), a.serial...)
	busy := make([]time.Duration, len(a.perWorker))
	for w, spans := range a.perWorker {
		for _, s := range spans {
			busy[w] += s.dur()
		}
		kernels = append(kernels, spans...)
	}
	for _, s := range kernels {
		rt.kernel += s.dur()
	}
	rt.edges = a.edges.Load()
	if len(a.serial) == 0 && len(busy) > 0 {
		var sum, top time.Duration
		for _, b := range busy {
			sum += b
			top = max(top, b)
		}
		if sum > 0 {
			rt.imbalance = float64(top) / (float64(sum) / float64(len(busy)))
		}
	}
	byIter := map[int64][]span{}
	for _, s := range kernels {
		byIter[s.Parent] = append(byIter[s.Parent], s)
	}
	for _, it := range a.iters {
		rt.iterMS = append(rt.iterMS, float64(it.dur())/1e6)
		rt.selfMS = append(rt.selfMS, float64(it.dur()-covered(it, byIter[it.ID]))/1e6)
	}
	a.tr.add(a.iters...)
	a.tr.add(kernels...)
	return rt
}

// reportRunTraces reports the kernel and iteration figures of traced
// runs; algo.kernel_s is scaled by per (1/rounds for the scans).
func reportRunTraces(o *outcome, rts []runTrace, per float64) {
	var kernel time.Duration
	var edges int64
	var iterMS, selfMS, imbalance []float64
	for _, rt := range rts {
		kernel += rt.kernel
		edges += rt.edges
		iterMS = append(iterMS, rt.iterMS...)
		selfMS = append(selfMS, rt.selfMS...)
		if rt.imbalance > 0 {
			imbalance = append(imbalance, rt.imbalance)
		}
	}
	o.set("algo.kernel_s", kernel.Seconds()*per, "s")
	o.set("algo.kernel_ns_per_edge", ratio(float64(kernel), float64(edges)), "ns")
	o.set("algo.worker_imbalance", mean(imbalance), "ratio")
	o.set("core.iteration_ms_p50", median(iterMS), "ms")
	o.set("core.iteration_self_ms_p50", median(selfMS), "ms")
}

// covered is the part of parent's interval that the union of children
// covers: the children of an iteration run on several workers at once.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s <= curEnd:
			curEnd = max(curEnd, e)
		default:
			total += curEnd - curStart
			curStart, curEnd = s, e
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// timingFS passes write-path file operations through to the real
// filesystem and records a span for every write and fsync of a WAL
// segment (files under the <graph>.wal directory).
type timingFS struct {
	faultfs.FS
	tr *tracer
	// walBytes counts bytes written to WAL segments.
	walBytes atomic.Int64
}

func newTimingFS(tr *tracer) *timingFS { return &timingFS{FS: faultfs.OS, tr: tr} }

// OpenFile wraps WAL segments, which the WAL opens (and creates) only
// through OpenFile.
func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.Contains(filepath.Dir(name), ".wal") {
		return file, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	faultfs.File
	fs *timingFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	start := t.fs.tr.now()
	n, err := t.File.Write(p)
	t.fs.walBytes.Add(int64(n))
	t.fs.tr.add(span{Name: "wal.write", ID: t.fs.tr.id(), Start: start, End: t.fs.tr.now(), N: int64(n)})
	return n, err
}

func (t *timedFile) Sync() error {
	start := t.fs.tr.now()
	err := t.File.Sync()
	t.fs.tr.add(span{Name: "wal.fsync", ID: t.fs.tr.id(), Start: start, End: t.fs.tr.now()})
	return err
}
