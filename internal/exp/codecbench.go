package exp

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/tile"
)

// CodecBench converts the primary workload once per tuple codec and
// compares storage bytes and query cost: tile bytes per edge, bytes read
// per query, and queries per second over an identical BFS+PageRank query
// mix on a throttled disk array. It also cross-checks that both codecs
// return bit-identical BFS depths and WCC labels, so the byte savings are
// measured against a provably equivalent store.
func CodecBench(c *Config) error {
	dir, err := tempWorkDir(c, "codec")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	el, err := c.edgeList(c.kronCfg())
	if err != nil {
		return err
	}
	edges := int64(len(el.Edges))
	rep := Report{Experiment: "codec", Scale: c.Scale, Seed: c.Seed}
	var depths [2][]int32
	var labels [2][]uint32
	for i, codec := range []string{"snb", "v3"} {
		p := newPhase(codec)
		topts := c.stdTileOpts()
		topts.TileBits = c.tileBits()
		topts.GroupQ = 8
		topts.Codec = codec
		begin := time.Now()
		tg, err := tile.Convert(el, dir, "codec-"+codec, topts)
		if err != nil {
			return err
		}
		p.Measured["convert_seconds"] = time.Since(begin).Seconds()
		p.Counters["edges"] = edges
		p.Counters["tile_bytes"] = tg.DataBytes()
		p.Counters["start_bytes"] = tg.StartBytes()
		if edges > 0 {
			p.Measured["bytes_per_edge"] = float64(tg.DataBytes()) / float64(edges)
		}
		err = codecQueries(tg, c.diskOpts(tg), p, &depths[i], &labels[i])
		tg.Close()
		if err != nil {
			return err
		}
		rep.Phases = append(rep.Phases, p)
	}
	if !slices.Equal(depths[0], depths[1]) || !slices.Equal(labels[0], labels[1]) {
		return fmt.Errorf("codec: v2 and v3 stores disagree on BFS/WCC results")
	}
	v2, v3 := rep.Phases[0], rep.Phases[1]
	if b := v3.Counters["tile_bytes"]; b > 0 {
		v3.Measured["tile_bytes_ratio_v2_over_v3"] = float64(v2.Counters["tile_bytes"]) / float64(b)
	}
	if b := v3.Measured["bytes_per_query"]; b > 0 {
		v3.Measured["bytes_per_query_ratio_v2_over_v3"] = v2.Measured["bytes_per_query"] / b
	}
	if q := v2.Measured["qps"]; q > 0 {
		v3.Measured["qps_ratio_v3_over_v2"] = v3.Measured["qps"] / q
	}
	c.emit(rep)
	return nil
}

// codecQueries runs the codec benchmark's query mix on tg into p: BFS
// from four spread roots, one PageRank and one WCC. Bytes per query
// average the engine's BytesRead over the mix; QPS is mix size over wall
// time. The first BFS's depths and the WCC labels go to depths and
// labels for the cross-codec check.
func codecQueries(tg *tile.Graph, opts core.Options, p Phase, depths *[]int32, labels *[]uint32) error {
	e, err := core.NewEngine(tg, opts)
	if err != nil {
		return err
	}
	defer e.Close()
	ctx := context.Background()
	nv := tg.Meta.NumVertices
	roots := []uint32{0, nv / 3, nv / 2, nv - 1}
	begin := time.Now()
	var bytesRead int64
	for qi, root := range roots {
		b := algo.NewBFS(root)
		st, err := e.Run(ctx, b)
		if err != nil {
			return err
		}
		bytesRead += st.BytesRead
		if qi == 0 {
			p.Measured["bfs_seconds"] = st.Elapsed.Seconds()
			*depths = b.Depths()
		}
	}
	st, err := e.Run(ctx, algo.NewPageRank(5))
	if err != nil {
		return err
	}
	bytesRead += st.BytesRead
	p.Measured["pagerank_seconds"] = st.Elapsed.Seconds()
	w := algo.NewWCC()
	if st, err = e.Run(ctx, w); err != nil {
		return err
	}
	bytesRead += st.BytesRead
	*labels = w.Labels()

	queries := int64(len(roots) + 2)
	elapsed := time.Since(begin).Seconds()
	p.Counters["queries"] = queries
	p.Counters["bytes_read"] = bytesRead
	p.Measured["bytes_per_query"] = float64(bytesRead) / float64(queries)
	p.Measured["elapsed_seconds"] = elapsed
	if elapsed > 0 {
		p.Measured["qps"] = float64(queries) / elapsed
	}
	return nil
}
