package exp

import (
	"context"
	"os"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/tile"
)

// IngestBench measures the mutable-graph write path end to end: it
// converts a fresh copy of the primary workload, times PageRank on the
// pristine base, streams a deterministic batch workload of edge inserts
// and deletes through the delta store (every Apply group-commits to the
// WAL), then re-runs PageRank with the delta merge active and reports
// the read overhead alongside mutations/sec.
//
// PageRank runs a fixed iteration count, so merged over pristine time is
// the merge cost. BFS is left out: its runtime moves with the sweep
// count, which the random inserts shrink by lowering the diameter.
func IngestBench(c *Config) error {
	dir, err := tempWorkDir(c, "ingest")
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
	tg, err := tile.Convert(el, dir, "ingest", topts)
	if err != nil {
		return err
	}
	defer tg.Close()
	base := tile.BasePath(dir, "ingest")

	e, err := core.NewEngine(tg, c.diskOpts(tg))
	if err != nil {
		return err
	}
	defer e.Close()
	ctx := context.Background()
	timePageRank := func() (float64, error) {
		begin := time.Now()
		_, err := e.Run(ctx, algo.NewPageRank(5))
		return time.Since(begin).Seconds(), err
	}

	// One warm-up PageRank fills the cache pool, so pristine and merged
	// timings compare warm to warm; otherwise the cold streaming cost
	// lands entirely on the pristine side.
	if _, err := timePageRank(); err != nil {
		return err
	}
	pristine, merged, ingest := newPhase("pristine"), newPhase("merged"), newPhase("ingest")
	prSec, err := timePageRank()
	if err != nil {
		return err
	}
	pristine.Measured["pagerank_seconds"] = prSec

	// The mutation stream: 7/8 inserts of pseudo-random new edges, 1/8
	// deletes of edges inserted earlier in the stream, all from one
	// seeded LCG so every run ingests the identical workload.
	total := int64(100_000)
	if c.Quick {
		total = 20_000
	}
	nv := tg.Meta.NumVertices
	x := c.Seed | 1
	next := func() uint32 {
		x = x*6364136223846793005 + 1442695040888963407
		return uint32(x>>33) % nv
	}
	var inserted []delta.Op
	ops := make([]delta.Op, 0, total)
	for int64(len(ops)) < total {
		if len(ops)%8 == 7 && len(inserted) > 0 {
			victim := inserted[int(next())%len(inserted)]
			ops = append(ops, delta.Op{Del: true, Src: victim.Src, Dst: victim.Dst})
			continue
		}
		op := delta.Op{Src: next(), Dst: next()}
		ops = append(ops, op)
		inserted = append(inserted, op)
	}

	ds, err := delta.Open(tg, base, delta.Options{})
	if err != nil {
		return err
	}
	defer ds.Close()
	const batchSize = 1024
	batches := int64(0)
	begin := time.Now()
	for off := 0; off < len(ops); off += batchSize {
		if _, err := ds.Apply(ops[off:min(off+batchSize, len(ops))]); err != nil {
			return err
		}
		batches++
	}
	applySec := time.Since(begin).Seconds()
	begin = time.Now()
	if err := ds.Flush(); err != nil {
		return err
	}
	ingest.Measured["flush_seconds"] = time.Since(begin).Seconds()
	st := ds.Stats()
	ingest.Counters["mutations"] = int64(len(ops))
	ingest.Counters["batch_size"] = batchSize
	ingest.Counters["batches"] = batches
	ingest.Counters["wal_appends"] = int64(st.WALAppends)
	ingest.Counters["delta_tiles"] = int64(st.DeltaTiles)
	ingest.Measured["apply_seconds"] = applySec
	ingest.Measured["mutations_per_sec"] = float64(len(ops)) / applySec

	e.SetDeltaStore(ds)
	if prSec, err = timePageRank(); err != nil {
		return err
	}
	merged.Measured["pagerank_seconds"] = prSec
	if p := pristine.Measured["pagerank_seconds"]; p > 0 {
		merged.Measured["overhead_pagerank"] = prSec / p
	}
	c.emit(Report{Experiment: "ingest", Scale: c.Scale, Seed: c.Seed,
		Phases: []Phase{pristine, ingest, merged}})
	return nil
}
