// Command benchdiff compares a gsbench -benchout file against a committed
// baseline. Both files hold a JSON array of exp.Report; reports match by
// experiment name and phases by phase name.
//
// The run fails when the current file lacks an experiment, phase or key
// the baseline has, or when any counter differs: counters (bytes read,
// requests, tile bytes, mutation counts) are deterministic for a given
// configuration and seed, so a changed value is a behaviour change. The
// measured values (timings, rates, ratios) only print their drift — CI
// runners are too noisy for timing thresholds.
//
// Usage:
//
//	benchdiff -baseline bench/BENCH_quick.json -current BENCH.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/gwu-systems/gstore/internal/exp"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline JSON report")
	current := flag.String("current", "", "freshly produced JSON report")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -baseline FILE -current FILE")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(1)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("benchdiff %s -> %s\n", *baseline, *current)
	if fails := compare(os.Stdout, base, cur); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "benchdiff: %s\n", f)
		}
		os.Exit(1)
	}
}

func load(path string) ([]exp.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []exp.Report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// compare prints one line per baseline counter and measured value with
// its current value, and returns every gate failure: a missing
// experiment, phase or key, or a counter that differs.
func compare(w io.Writer, base, cur []exp.Report) []string {
	var fails []string
	fmt.Fprintf(w, "%-55s  %15s  %15s  %9s\n", "experiment/phase.key", "baseline", "current", "delta")
	for _, b := range base {
		c, ok := find(cur, func(r exp.Report) string { return r.Experiment }, b.Experiment)
		if !ok {
			fails = append(fails, fmt.Sprintf("experiment %q missing from current report", b.Experiment))
			continue
		}
		if c.Scale != b.Scale || c.Seed != b.Seed {
			fails = append(fails, fmt.Sprintf("%s: current ran at scale %d seed %d, baseline at scale %d seed %d",
				b.Experiment, c.Scale, c.Seed, b.Scale, b.Seed))
			continue
		}
		for _, bp := range b.Phases {
			where := b.Experiment + "/" + bp.Name
			cp, ok := find(c.Phases, func(p exp.Phase) string { return p.Name }, bp.Name)
			if !ok {
				fails = append(fails, fmt.Sprintf("phase %q missing from current report", where))
				continue
			}
			for _, k := range sortedKeys(bp.Counters) {
				bv, path := bp.Counters[k], where+"."+k
				cv, ok := cp.Counters[k]
				switch {
				case !ok:
					fails = append(fails, fmt.Sprintf("counter %q missing from current report", path))
				case cv != bv:
					fails = append(fails, fmt.Sprintf("counter %q is %d, baseline %d", path, cv, bv))
					fmt.Fprintf(w, "%-55s  %15d  %15d  %9s\n", path, bv, cv, "DIFFERS")
				default:
					fmt.Fprintf(w, "%-55s  %15d  %15d  %9s\n", path, bv, cv, "same")
				}
			}
			for _, k := range sortedKeys(bp.Measured) {
				bv, path := bp.Measured[k], where+"."+k
				cv, ok := cp.Measured[k]
				if !ok {
					fails = append(fails, fmt.Sprintf("measured value %q missing from current report", path))
					continue
				}
				fmt.Fprintf(w, "%-55s  %15.4g  %15.4g  %9s\n", path, bv, cv, drift(bv, cv))
			}
		}
	}
	return fails
}

func find[T any](items []T, name func(T) string, want string) (T, bool) {
	for _, it := range items {
		if name(it) == want {
			return it, true
		}
	}
	var zero T
	return zero, false
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func drift(b, c float64) string {
	if b == 0 {
		if c == 0 {
			return "+0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (c-b)/b*100)
}
