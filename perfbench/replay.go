package main

import (
	"fmt"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// replayBudget is roughly how long each replay repeats its pass over
// the tiles, so short passes still give a steady per-unit time.
const replayBudget = 200 * time.Millisecond

// replayLayers times the layers' public functions over the workload's
// own tiles and reports tile.*, storage.read_* and, when view is not
// nil, delta.merge_ns_per_tuple:
//
//   - tile.DecodeTuples over every tile, in the graph's codec;
//   - tile.Checksum over every tile (the read path's verify);
//   - TileDelta.Merge over every tile of view;
//   - Submit/Wait on a device built as the engine builds it, one request
//     per streaming segment of consecutive tiles.
func replayLayers(out *outcome, g *tile.Graph, opts core.Options, view *delta.View) error {
	tiles := make([][]byte, g.Layout.NumTiles())
	for i := range tiles {
		data, err := g.ReadTile(i, nil)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		tiles[i] = data
	}
	out.set("tile.bytes_per_edge", ratio(float64(g.DataBytes()), float64(g.Meta.NumStored)), "bytes")

	codec := g.Meta.TupleCodec()
	var sink uint32
	var decoded int64
	elapsed, err := repeat(func() error {
		for i, data := range tiles {
			c := g.Layout.CoordAt(i)
			rb, _ := g.Layout.VertexRange(c.Row)
			cb, _ := g.Layout.VertexRange(c.Col)
			if err := tile.DecodeTuples(data, codec, rb, cb, func(s, d uint32) { sink += s ^ d }); err != nil {
				return err
			}
			decoded += g.TupleCount(i)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	out.set("tile.decode_ns_per_edge", ratio(float64(elapsed), float64(decoded)), "ns")

	var summed int64
	elapsed, _ = repeat(func() error {
		for _, data := range tiles {
			sink += tile.Checksum(data)
			summed += int64(len(data))
		}
		return nil
	})
	out.set("tile.verify_ns_per_byte", ratio(float64(elapsed), float64(summed)), "ns")
	_ = sink

	merge := 0.0
	if view != nil {
		var err error
		if merge, err = replayMerge(g, tiles, view); err != nil {
			return err
		}
	}
	out.set("delta.merge_ns_per_tuple", merge, "ns")

	p50, p99, err := replayDevice(g, opts)
	if err != nil {
		return err
	}
	out.set("storage.read_p50_us", p50, "us")
	out.set("storage.read_p99_us", p99, "us")
	return nil
}

// repeat runs pass at least once and until replayBudget has elapsed,
// returning the total time.
func repeat(pass func() error) (time.Duration, error) {
	begin := time.Now()
	for {
		if err := pass(); err != nil {
			return 0, err
		}
		if d := time.Since(begin); d >= replayBudget {
			return d, nil
		}
	}
}

// replayMerge merges every delta tile of view with its base tile once
// (Merge memoizes per view, so a second pass would time the cache) and
// returns the time per merged output tuple.
func replayMerge(g *tile.Graph, tiles [][]byte, view *delta.View) (float64, error) {
	codec := g.Meta.TupleCodec()
	var elapsed time.Duration
	var tuples int64
	for _, di := range view.TileIndexes() {
		c := g.Layout.CoordAt(di)
		rb, _ := g.Layout.VertexRange(c.Row)
		cb, _ := g.Layout.VertexRange(c.Col)
		begin := time.Now()
		merged, err := view.Tile(di).Merge(tiles[di], codec, g.Layout.TileBits, rb, cb)
		elapsed += time.Since(begin)
		if err != nil {
			return 0, fmt.Errorf("replay merge: tile %d: %w", di, err)
		}
		if tb := codec.TupleBytes(); tb > 0 {
			tuples += int64(len(merged)) / tb
		}
	}
	return ratio(float64(elapsed), float64(tuples)), nil
}

// replayDevice reads every tile through a fresh device configured like
// the engine's, one request per segment of consecutive tiles, one
// request at a time, and returns the p50 and p99 request latency
// (submit to completion) in microseconds.
func replayDevice(g *tile.Graph, opts core.Options) (p50, p99 float64, err error) {
	var dev storage.Device
	if opts.Backend == "file" {
		dev, err = storage.NewFileDevice(g.TilesPath(), storage.FileOptions{
			Workers: opts.IOWorkers, Bandwidth: opts.Bandwidth, Latency: opts.Latency,
		})
	} else {
		dev, err = storage.NewArray(g.TilesFile(), storage.Options{
			NumDisks: opts.Disks, StripeSize: opts.StripeSize,
			Bandwidth: opts.Bandwidth, Latency: opts.Latency,
		})
	}
	if err != nil {
		return 0, 0, fmt.Errorf("replay device: %w", err)
	}
	defer dev.Close()

	// The engine reads a run of consecutive needed tiles with one request
	// of at most a segment; a full pass needs every tile, so each request
	// is a segment's worth of consecutive tiles.
	var ranges [][2]int64
	for i := 0; i < g.Layout.NumTiles(); i++ {
		off, n := g.TileByteRange(i)
		if last := len(ranges) - 1; last >= 0 && ranges[last][1]+n <= opts.SegmentSize {
			ranges[last][1] += n
		} else if n > 0 {
			ranges = append(ranges, [2]int64{off, n})
		}
	}
	buf := make([]byte, opts.SegmentSize)
	var lat []float64
	var comps []storage.Completion
	pass := func() error {
		for i, r := range ranges {
			submitted := time.Now()
			req := &storage.Request{Offset: r[0], Buf: buf[:min(r[1], int64(len(buf)))], Tag: int64(i)}
			if r[1] > int64(len(buf)) {
				req.Buf = make([]byte, r[1])
			}
			if err := dev.Submit([]*storage.Request{req}); err != nil {
				return err
			}
			comps = dev.Wait(1, comps[:0])
			lat = append(lat, float64(time.Since(submitted))/1e3)
			for _, c := range comps {
				if c.Err != nil {
					return fmt.Errorf("bytes [%d, +%d): %w", r[0], r[1], c.Err)
				}
			}
		}
		return nil
	}
	if _, err := repeat(pass); err != nil {
		return 0, 0, fmt.Errorf("replay device: %w", err)
	}
	return quantile(lat, 0.5), quantile(lat, 0.99), nil
}
