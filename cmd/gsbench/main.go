// Command gsbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints an aligned text table; EXPERIMENTS.md
// records the measured values against the paper's.
//
// Usage:
//
//	gsbench -list
//	gsbench -run all [-scale 18] [-edgefactor 16] [-workdir DIR]
//	gsbench -run fig9,fig10 -quick
//	gsbench -run serve,serve-personal,ingest,codec,io -quick -benchout BENCH.json
//	gsbench -clients 8 -duration 10s
//	gsbench -clients 8 -target http://localhost:8080
//	gsbench -run chaos [-seed N] [-benchout CHAOS.json]
//
// The benchmark experiments (serve, serve-personal, ingest, codec, io,
// chaos) each print one metric × phase table. With -benchout, gsbench
// writes all of their reports as one JSON array after the last
// experiment (also when one fails); cmd/benchdiff compares two such
// files.
//
// The -clients mode is the closed-loop serving benchmark: N concurrent
// clients fire mixed BFS/PageRank queries at one graph for -duration and
// the report compares serialized execution against the shared-scan
// scheduler (QPS, p50/p95/p99 latency, bytes per query). With -target it
// load-tests a running gstored instead of an in-process server.
//
// The serve-personal experiment benchmarks the personalized-query path:
// a Zipf mix of single-root BFS queries served one-root-per-slot vs
// fused into multi-source runs (2 ms window) with the result cache on.
//
// The chaos experiment is a correctness harness, not a benchmark: seeded
// schedules of ingest, flushes, injected write faults, and simulated
// crashes, each followed by a restart whose recovered state must match a
// fresh conversion of the reference edge set (DESIGN.md §15). Any
// invariant violation makes the run fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/gwu-systems/gstore/internal/exp"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		run        = flag.String("run", "", "comma-separated experiment IDs, or 'all'")
		scale      = flag.Uint("scale", 0, "Kronecker scale of the primary workload (default 18, quick 14)")
		edgeFactor = flag.Int("edgefactor", 0, "edges per vertex (default 16)")
		seed       = flag.Uint64("seed", 0, "generator seed")
		threads    = flag.Int("threads", 0, "worker threads (default GOMAXPROCS)")
		sweep      = flag.String("sweep", "", "comma-separated thread counts for the sweep experiment, e.g. 1,2,4,8")
		workDir    = flag.String("workdir", "", "directory for generated graphs (default under TMPDIR)")
		quick      = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		clients    = flag.Int("clients", 0, "closed-loop client count for the serving benchmark")
		duration   = flag.Duration("duration", 0, "serving benchmark phase duration (default 5s, quick 2s)")
		target     = flag.String("target", "", "base URL of a running gstored to benchmark (default: in-process server)")
		benchOut   = flag.String("benchout", "", "file receiving every benchmark report of the run as one JSON array")
	)
	flag.Parse()

	var threadList []int
	if *sweep != "" {
		for _, s := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "gsbench: bad -sweep entry %q\n", s)
				os.Exit(2)
			}
			threadList = append(threadList, n)
		}
		// -sweep alone implies running the sweep experiment.
		if *run == "" {
			*run = "sweep"
		}
	}
	// -clients or -target alone implies the serving benchmark.
	if (*clients > 0 || *target != "") && *run == "" {
		*run = "serve"
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, r := range exp.All() {
			fmt.Printf("  %-10s %s\n", r.ID, r.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <ids|all>")
		}
		return
	}

	cfg := &exp.Config{
		WorkDir:    *workDir,
		Scale:      *scale,
		EdgeFactor: *edgeFactor,
		Seed:       *seed,
		Threads:    *threads,
		Out:        os.Stdout,
		Quick:      *quick,
	}
	cfg.ThreadList = threadList
	cfg.BenchClients = *clients
	cfg.BenchDuration = *duration
	cfg.Target = *target
	cfg.Defaults()

	var ids []string
	if *run == "all" {
		for _, r := range exp.All() {
			ids = append(ids, r.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	var runners []exp.Runner
	for _, id := range ids {
		r, ok := exp.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "gsbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		runners = append(runners, r)
	}
	status := 0
	for _, r := range runners {
		fmt.Printf("-- %s: %s\n", r.ID, r.Title)
		begin := time.Now()
		if err := r.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: %s failed: %v\n", r.ID, err)
			status = 1
			break
		}
		fmt.Printf("-- %s done in %v\n\n", r.ID, time.Since(begin).Round(time.Millisecond))
	}
	if *benchOut != "" {
		if err := writeReports(*benchOut, cfg.Reports()); err != nil {
			fmt.Fprintf(os.Stderr, "gsbench: writing -benchout: %v\n", err)
			status = 1
		} else {
			fmt.Printf("wrote %d reports to %s\n", len(cfg.Reports()), *benchOut)
		}
	}
	os.Exit(status)
}

// writeReports writes reps to path as one indented JSON array.
func writeReports(path string, reps []exp.Report) error {
	if reps == nil {
		reps = []exp.Report{}
	}
	blob, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
