package exp

import (
	"bytes"
	"testing"
)

// TestChaosShort is the CI chaos gate: 200 seeded fault/crash schedules
// must recover with every invariant intact — acked mutations present
// exactly, unacked batches absent or whole, fsck clean, no temp litter,
// and query results matching a fresh conversion of the reference edge
// set (BFS exact, PageRank/PPR within 1e-9).
func TestChaosShort(t *testing.T) {
	var out bytes.Buffer
	c := &Config{
		WorkDir:    t.TempDir(),
		Scale:      9,
		EdgeFactor: 8,
		Seed:       20160901,
		Threads:    2,
		Out:        &out,
		Quick:      true,
	}
	c.Defaults()
	rep, findings, err := chaosRun(c, 200)
	if err != nil {
		t.Fatalf("chaos run: %v\n%s", err, out.String())
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
	n := rep.Phases[0].Counters
	if n["recoveries"] != 200 {
		t.Fatalf("verified %d recoveries, want 200", n["recoveries"])
	}
	if n["server_scenarios"] != 1 {
		t.Fatalf("server degraded-mode scenario did not run")
	}
	// The schedule generator must actually exercise the fault space:
	// with 200 schedules over 6 scenarios, each class appears many times.
	if n["crashes"] == 0 || n["fsync_failures"] == 0 || n["transient_faults"] == 0 || n["enospc_faults"] == 0 {
		t.Fatalf("fault space not covered: %v", n)
	}
	if n["flushes"] == 0 || n["acked_batches"] == 0 {
		t.Fatalf("write path not exercised: %v", n)
	}
}
