package exp

import (
	"math/rand"
	"strconv"
	"time"

	"github.com/gwu-systems/gstore/internal/server"
	"github.com/gwu-systems/gstore/internal/tile"
)

// ServePersonal drives the personalized-query serving path with a
// closed loop of clients firing GET /bfs?root= queries whose roots
// follow a Zipf distribution with bursts (every client occasionally
// repeats its current root back to back, the way a recommendation
// refresh re-queries the same user). Two phases over the same graph:
//
//   - one-root-per-slot: batch window 0, cache off — every query is a
//     solo BFS occupying its own run slot.
//   - fused+cache: a 2 ms coalescing window (gstored's default) and the
//     result cache — concurrent roots fuse into one msbfs run and
//     repeats hit the cache.
//
// Besides the closed loop's QPS, latency and bytes/query, each phase
// reports the cache hit rate, the coalesced-run count, and the p99
// scheduler admission wait from the gstore_run_queue_wait_seconds
// histogram.
func ServePersonal(c *Config) error {
	clients := c.BenchClients
	if clients <= 0 {
		clients = 32
	}
	tg, err := c.tileGraph("servepersonal", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	base := tile.BasePath(c.WorkDir, "servepersonal")
	vertices := tg.Meta.NumVertices

	// Every client draws Zipf-distributed roots and re-queries each one
	// in a short burst: the repeat factor of a refresh.
	const burst = 4
	zipfRoots := func(ci int) func() request {
		rng := rand.New(rand.NewSource(int64(c.Seed) + int64(ci)*7919))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(vertices-1))
		var root uint64
		left := 0
		return func() request {
			if left == 0 {
				root, left = zipf.Uint64(), burst
			}
			left--
			return request{path: "/bfs?root=" + strconv.FormatUint(root, 10)}
		}
	}

	rep := Report{Experiment: "serve-personal", Scale: c.Scale, Seed: c.Seed}
	for _, fused := range []bool{false, true} {
		opts := c.diskOpts(tg)
		opts.MaxConcurrentRuns = min(clients, 64)
		srv := server.New()
		srv.ReadOnly = true // serving benchmark; no mutations in the loop
		name := "one-root-per-slot"
		if fused {
			name = "fused+cache"
			opts.BatchWindow = 2 * time.Millisecond
			srv.QCacheBytes = 32 << 20
			srv.QCacheTTL = 5 * time.Minute
		}
		p, moved, err := servePhase(srv, base, opts, name, clients, c.benchDuration(), zipfRoots)
		if err != nil {
			return err
		}
		m := p.Measured
		m["cache_hits"] = moved["gstore_qcache_hits_total"]
		m["cache_misses"] = moved["gstore_qcache_misses_total"]
		m["cache_joins"] = moved["gstore_qcache_joins_total"]
		if m["queries"] > 0 {
			m["cache_hit_rate"] = m["cache_hits"] / m["queries"]
		}
		m["coalesced_runs"] = moved[series("gstore_personal_coalesced_runs_total")]
		m["queue_wait_p99_ms"] = bucketQuantile(moved, "gstore_run_queue_wait_seconds", 0.99) * 1e3
		rep.Phases = append(rep.Phases, p)
	}
	compareLoops(rep.Phases[0], rep.Phases[1])
	c.emit(rep)
	return nil
}
