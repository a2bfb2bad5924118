// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads against the G-Store library and server, checks every
// output against the reference oracles, and prints its metrics:
//
//	perfbench --workload scan-ooc --seed 1 --seconds 10 --trace 0
//
// Workloads (README.md gives sizes, rates and the layer map):
//
//   - scan-ooc: solo BFS, PageRank and WCC over a throttled simulated
//     8-disk array with a memory budget of a quarter of the tile bytes.
//   - scan-resident: the same runs on the v3 codec over the file backend
//     with every tile fitting the cache pool.
//   - serve-mixed: an in-process server under a Poisson open loop of
//     personalized reads, whole-graph PageRank and edge inserts.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it repeats the measured phase traced (spans around every
// layer call, kept in memory and written to a JSON-lines file at the
// end), replays the layers' public functions over the workload's own
// tiles, and reports the per-layer metrics plus the tracing overhead.
//
// Every metric measured is printed as "name value unit" first; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A failed correctness check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// spec names one reported metric. The two lists below are the metric
// sets of BENCHMARK.json; perfbench_test.go keeps them in sync.
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports untraced. Each has a
// meaning on every workload (see README.md): scans time solo runs,
// serve-mixed times requests from when they were due.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"bfs_s", "s", "lower"},
	{"pagerank_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"heap_mib", "MiB", "lower"},
}

// perLayer are the metrics every workload reports from its traced run.
// A layer the workload does not use reports 0.
var perLayer = []spec{
	{"storage.bytes_read", "bytes", "lower"},
	{"storage.requests", "count", "lower"},
	{"storage.spans", "count", "lower"},
	{"storage.bytes_per_edge_processed", "bytes", "lower"},
	{"storage.read_p50_us", "us", "lower"},
	{"storage.read_p99_us", "us", "lower"},
	{"mem.tiles_fetched", "count", "lower"},
	{"mem.tiles_from_cache", "count", "higher"},
	{"mem.pool_hit_ratio", "ratio", "higher"},
	{"mem.evicted_tiles", "count", "lower"},
	{"mem.copied_bytes", "bytes", "lower"},
	{"mem.budget_over_tile_bytes", "ratio", "higher"},
	{"core.iterations", "count", "lower"},
	{"core.tiles_processed", "count", "lower"},
	{"core.tiles_skipped", "count", "higher"},
	{"core.io_wait_s", "s", "lower"},
	{"core.compute_s", "s", "lower"},
	{"core.iteration_ms_p50", "ms", "lower"},
	{"core.iteration_self_ms_p50", "ms", "lower"},
	{"core.queue_wait_p99_ms", "ms", "lower"},
	{"core.batched_roots_mean", "count", "higher"},
	{"core.shared_runs_mean", "count", "higher"},
	{"core.coalesced_runs", "count", "higher"},
	{"tile.bytes_per_edge", "bytes", "lower"},
	{"tile.tiles_verified", "count", "lower"},
	{"tile.verify_ns_per_byte", "ns", "lower"},
	{"tile.decode_ns_per_edge", "ns", "lower"},
	{"algo.kernel_s", "s", "lower"},
	{"algo.kernel_ns_per_edge", "ns", "lower"},
	{"algo.chunks", "count", "lower"},
	{"algo.worker_imbalance", "ratio", "lower"},
	{"delta.tiles", "count", "lower"},
	{"delta.ins_tuples", "count", "lower"},
	{"delta.merged_tiles", "count", "lower"},
	{"delta.merge_ns_per_tuple", "ns", "lower"},
	{"wal.appends", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.fsync_ms_p50", "ms", "lower"},
	{"wal.fsync_ms_p99", "ms", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"qcache.hits", "count", "higher"},
	{"qcache.misses", "count", "lower"},
	{"qcache.joins", "count", "higher"},
	{"qcache.invalidations", "count", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"server.requests", "count", "higher"},
	{"server.status_429", "count", "lower"},
	{"server.status_5xx", "count", "lower"},
	{"loadgen.max_lag_ms", "ms", "lower"},
	{"trace.overhead_bfs_s", "s", "lower"},
	{"trace.overhead_pagerank_s", "s", "lower"},
	{"trace.overhead_cpu_s", "s", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produced: every metric it measured,
// and its operation and failure counts. Mismatches describe the failed
// correctness checks (each also counts in failed).
type outcome struct {
	metrics    map[string]metric
	attempted  int64
	failed     int64
	mismatches []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records one failed correctness check.
func (o *outcome) mismatch(format string, args ...interface{}) {
	o.failed++
	if len(o.mismatches) < 16 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// work holds the run's generated graphs (removed at exit) and the
	// traces directory (kept).
	work string
}

// workloads maps names to their runners at benchmark size.
var workloads = map[string]func(options) (*outcome, error){
	"scan-ooc":      func(o options) (*outcome, error) { return runScan(scanOOC, o) },
	"scan-resident": func(o options) (*outcome, error) { return runScan(scanResident, o) },
	"serve-mixed":   func(o options) (*outcome, error) { return runServe(serveMixed, o) },
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "scan-ooc, scan-resident or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: roots, arrival schedule, op sequence and inserted edges")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "work directory for graphs and traces")
	flag.Parse()
	o.trace = traceFlag != 0

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {scan-ooc,scan-resident,serve-mixed}, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	// Load comes from one process on at most two cores, as sized in
	// README.md; more cores would change the regime, not just the speed.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	os.Exit(emit(os.Stdout, o, out))
}

// emit prints every measured metric, then the result line with the
// metric set the mode reports, and returns the exit code.
func emit(w io.Writer, o options, out *outcome) int {
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, s := range out.mismatches {
		fmt.Fprintf(w, "MISMATCH %s\n", s)
	}

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", o.workload)
		return 1
	}
	for _, s := range want {
		m, ok := out.metrics[s.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", o.workload, s.Name)
			return 1
		}
		res.Metrics[s.Name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workDir makes a fresh directory for one run's graphs.
func workDir(o options) (string, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.work, o.workload+"-")
}

// timeIt runs f and returns its wall time.
func timeIt(f func() error) (time.Duration, error) {
	begin := time.Now()
	err := f()
	return time.Since(begin), err
}
