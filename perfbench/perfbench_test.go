package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/graph"
)

// Tiny versions of the three workloads: the same code paths at a scale
// that runs in a second.
var (
	tinyOOC = scanConfig{scale: 10, codec: "snb", backend: "sim", throttle: true,
		memFrac: 0.25, roots: 2, prIters: 3, setupReps: 2}
	tinyResident = scanConfig{scale: 10, codec: "v3", backend: "file",
		memFrac: 1, roots: 2, prIters: 3, setupReps: 2}
	tinyServe = serveConfig{
		scale: 10, memFrac: 0.5,
		rate: 60, ladder: []float64{90}, rungFrac: 0.5, sloMS: 500,
		mix:         opMix{bfs: 0.6, ppr: 0.1, pagerank: 0.1, edges: 0.2},
		insertBatch: 4, maxInflight: 64,
		window: 2 * time.Millisecond, qcacheBytes: 1 << 20,
		iters: 3, gateRoots: 2, setupReps: 2,
		probeBlocks: 2, probeFrac: 0.2, probes: 2,
	}
)

func tinyRun(t *testing.T, workload string, trace bool) (*outcome, options) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 0.4, trace: trace, work: t.TempDir()}
	var out *outcome
	var err error
	switch workload {
	case "scan-ooc":
		out, err = runScan(tinyOOC, o)
	case "scan-resident":
		out, err = runScan(tinyResident, o)
	case "serve-mixed":
		out, err = runServe(tinyServe, o)
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out, o
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks the result line: correct, and every metric of the mode present
// with its unit.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"scan-ooc", "scan-resident", "serve-mixed"} {
		for _, trace := range []bool{false, true} {
			out, o := tinyRun(t, wl, trace)
			var buf bytes.Buffer
			if code := emit(&buf, o, out); code != 0 {
				t.Fatalf("%s trace=%v: exit %d, mismatches %v\n%s", wl, trace, code, out.mismatches, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: result %+v", wl, trace, res)
			}
			for _, s := range want {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl, trace, s.Name, m, s.Unit)
				}
			}
		}
	}
}

// TestServeUsesEveryServingLayer checks that the traced serving run
// exercises the layers only it is meant to exercise.
func TestServeUsesEveryServingLayer(t *testing.T) {
	out, _ := tinyRun(t, "serve-mixed", true)
	for _, name := range []string{"wal.appends", "wal.fsyncs", "delta.tiles", "delta.merged_tiles",
		"delta.merge_ns_per_tuple", "qcache.misses", "server.requests", "storage.bytes_read"} {
		if out.metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.metrics[name].Value)
		}
	}
}

// TestScheduleDeterminism pins that the seed alone decides roots, the
// arrival schedule, the op sequence and the inserted edges.
func TestScheduleDeterminism(t *testing.T) {
	el, err := generate(10)
	if err != nil {
		t.Fatal(err)
	}
	giant := giantComponent(graph.RefWCC(el))
	draw := func(seed uint64) ([]uint32, []op) {
		b := &serveBench{cfg: tinyServe, o: options{seed: seed}, el: el}
		b.prepare()
		return pickRoots(giant, 3, rngFor(seed, purposeRoots)), b.schedule(40, 2*time.Second, 0)
	}
	r1, s1 := draw(1)
	r1b, s1b := draw(1)
	r2, s2 := draw(2)
	if !reflect.DeepEqual(r1, r1b) || !reflect.DeepEqual(s1, s1b) {
		t.Fatal("the same seed gave different roots or schedules")
	}
	if reflect.DeepEqual(r1, r2) || reflect.DeepEqual(s1, s2) {
		t.Fatal("different seeds gave the same roots or schedule")
	}
	kinds := map[opKind]int{}
	for _, o := range s1 {
		kinds[o.kind]++
	}
	if len(kinds) != 4 {
		t.Fatalf("schedule kinds %v, want all four", kinds)
	}
}

// TestGateFailsOnCorruptedOutput corrupts one output of each kind and
// checks that the gate reports it and the command fails.
func TestGateFailsOnCorruptedOutput(t *testing.T) {
	depths := []int32{0, 1, 2, -1}
	bad := append([]int32(nil), depths...)
	bad[2] = 3
	if checkDepths(bad, depths) == nil {
		t.Error("corrupted BFS depth passed")
	}
	labels := []uint32{0, 0, 2}
	if checkLabels([]uint32{0, 1, 2}, labels) == nil {
		t.Error("corrupted WCC label passed")
	}
	ranks := []float64{0.25, 0.75}
	if checkRanks([]float64{0.25, 0.75 + 1e-8}, ranks) == nil {
		t.Error("PageRank off by 1e-8 passed")
	}
	if checkRanks([]float64{0.25, 0.75 + 1e-12}, ranks) != nil {
		t.Error("PageRank within 1e-9 failed")
	}

	// The write-path gate: one acknowledged batch on disk, but the
	// reference claims a second batch with an extra edge.
	o := options{workload: "serve-mixed", seed: 3, seconds: 1, work: t.TempDir()}
	b := &serveBench{cfg: tinyServe, o: o, out: newOutcome()}
	var err error
	if b.el, err = generate(tinyServe.scale); err != nil {
		t.Fatal(err)
	}
	b.prepare()
	srv, base, err := b.setUp(filepath.Join(o.work, "g"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, tinyServe.request(context.Background(), op{kind: opEdges, edges: [][2]uint32{{1, 2}}}))
	srv.Close()
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body.String())
	}
	honest := &loadResult{acked: [][2]uint32{{1, 2}}, batches: 1}
	if err := b.gate(base, []*loadResult{honest}, nil, nil); err != nil || b.out.failed != 0 {
		t.Fatalf("honest gate: err %v, mismatches %v", err, b.out.mismatches)
	}
	lying := &loadResult{acked: [][2]uint32{{1, 2}, {b.gateRoots[0], b.nv - 1}}, batches: 2}
	if err := b.gate(base, []*loadResult{lying}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if b.out.failed == 0 {
		t.Fatal("gate accepted a recovered store missing an acknowledged batch")
	}
	for _, s := range endToEnd {
		b.out.set(s.Name, 1, s.Unit)
	}
	var buf bytes.Buffer
	if code := emit(&buf, o, b.out); code == 0 || !strings.Contains(buf.String(), `"correct":false`) {
		t.Fatalf("a failed gate must fail the command: exit %d\n%s", code, buf.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists and workloads
// in step with the program.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", bj.PerLayer, perLayer)
	}
}
