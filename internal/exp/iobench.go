package exp

import (
	"context"
	"fmt"
	"os"
	"slices"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/tile"
)

// IOBench sweeps BFS+PageRank over the simulated array (unthrottled, so
// it measures scheduling overhead rather than a modeled disk) and the
// file-backed async device at matching parallelism, one phase per
// backend and worker count ("sim/w2", "file/w2", ...), reporting
// edges/sec, bytes/sec, read-latency percentiles, and the file backend's
// request coalescing ratio. BFS depths are cross-checked bit-identical
// across every combination.
func IOBench(c *Config) error {
	dir, err := tempWorkDir(c, "io")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	el, err := c.edgeList(c.kronCfg())
	if err != nil {
		return err
	}
	topts := c.stdTileOpts()
	topts.TileBits = c.tileBits()
	topts.GroupQ = 8
	tg, err := tile.Convert(el, dir, "io", topts)
	if err != nil {
		return err
	}
	defer tg.Close()

	prIters := 5
	workers := []int{1, 2, 4, 8}
	if c.Quick {
		prIters = 3
		workers = []int{2, 4}
	}
	rep := Report{Experiment: "io", Scale: c.Scale, Seed: c.Seed}
	var refDepths []int32
	edges := 2 * tg.Meta.NumOriginal

	runSide := func(backend string, w int) (Phase, error) {
		p := newPhase(fmt.Sprintf("%s/w%d", backend, w))
		o := c.diskOpts(tg)
		// Unthrottled: the sim side costs nothing per byte, so beating it
		// means the real read path's overhead is hidden by the pipeline.
		o.Bandwidth = 0
		o.Latency = 0
		if backend == "file" {
			o.Backend = "file"
			o.IOWorkers = w
		} else {
			o.Disks = w
		}
		e, err := core.NewEngine(tg, o)
		if err != nil {
			return p, err
		}
		defer e.Close()
		ctx := context.Background()

		b := algo.NewBFS(0)
		bst, err := e.Run(ctx, b)
		if err != nil {
			return p, err
		}
		if refDepths == nil {
			refDepths = b.Depths()
		} else if !slices.Equal(refDepths, b.Depths()) {
			return p, fmt.Errorf("io: %s disagrees with sim/w%d on BFS depths", p.Name, workers[0])
		}
		pst, err := e.Run(ctx, algo.NewPageRank(prIters))
		if err != nil {
			return p, err
		}

		n, m := p.Counters, p.Measured
		n["bytes_read"] = bst.BytesRead + pst.BytesRead
		n["requests"] = bst.Storage.Requests + pst.Storage.Requests
		n["spans"] = bst.IO.Spans + pst.IO.Spans
		n["coalesced"] = bst.IO.Coalesced + pst.IO.Coalesced
		n["gap_bytes"] = bst.IO.GapBytes + pst.IO.GapBytes
		n["readahead_hints"] = bst.IO.ReadaheadHints + pst.IO.ReadaheadHints
		m["bfs_seconds"] = bst.Elapsed.Seconds()
		m["pagerank_seconds"] = pst.Elapsed.Seconds()
		if pr := pst.Elapsed.Seconds(); pr > 0 {
			m["edges_per_second"] = float64(prIters) * float64(edges) / pr
		}
		if total := (bst.Elapsed + pst.Elapsed).Seconds(); total > 0 {
			m["bytes_per_second"] = float64(n["bytes_read"]) / total
		}
		if n["spans"] > 0 {
			m["coalesce_ratio"] = float64(n["requests"]) / float64(n["spans"])
		}
		// Percentiles come from the PageRank run alone: its dense sweeps
		// are the steady-state read pattern the backend is sized for.
		m["read_p50_usec"] = pst.IO.Latency.Quantile(0.5) * 1e6
		m["read_p99_usec"] = pst.IO.Latency.Quantile(0.99) * 1e6
		return p, nil
	}

	for _, w := range workers {
		sim, err := runSide("sim", w)
		if err != nil {
			return err
		}
		file, err := runSide("file", w)
		if err != nil {
			return err
		}
		// >= 1 means real reads keep up with the zero-cost simulator.
		if s := sim.Measured["edges_per_second"]; s > 0 {
			file.Measured["edges_ratio_over_sim"] = file.Measured["edges_per_second"] / s
		}
		rep.Phases = append(rep.Phases, sim, file)
	}
	c.emit(rep)
	return nil
}
