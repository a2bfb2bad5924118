package exp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/server"
	"github.com/gwu-systems/gstore/internal/tile"
)

// benchGraph is the graph name the serving benchmarks query.
const benchGraph = "bench"

// ServeBench drives gstored's serving path with a closed loop of
// concurrent clients mixing BFS and PageRank queries against one graph.
// Self-contained (no Target), it runs two phases over an in-process
// server — runs serialized (MaxConcurrentRuns=1) vs co-scheduled on the
// shared sweep (MaxConcurrentRuns=Clients) — and reports the QPS
// speedup and per-query bytes ratio the scheduler buys. With Target set
// it load-tests a running gstored instead (one phase, whatever that
// daemon's limits are).
func ServeBench(c *Config) error {
	clients := c.BenchClients
	if clients <= 0 {
		clients = 8
	}
	// Half the clients rank, half traverse; every client uses its own BFS
	// root so the union need set exercises selective fetch.
	mix := func(ci int) func() request {
		r := request{path: "/pagerank", body: []byte(`{"iterations":5,"top":1}`)}
		if ci%2 == 1 {
			r = request{path: "/bfs", body: []byte(fmt.Sprintf(`{"root":%d}`, ci))}
		}
		return func() request { return r }
	}
	rep := Report{Experiment: "serve", Scale: c.Scale, Seed: c.Seed}
	if c.Target != "" {
		p, _, err := closedLoop(c.Target, "remote", clients, c.benchDuration(), mix)
		if err != nil {
			return err
		}
		rep.Phases = []Phase{p}
		c.emit(rep)
		return nil
	}

	tg, err := c.tileGraph("servebench", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	base := tile.BasePath(c.WorkDir, "servebench")
	for _, ph := range []struct {
		name    string
		maxRuns int
	}{{"serialized", 1}, {"shared", clients}} {
		opts := c.diskOpts(tg)
		opts.MaxConcurrentRuns = ph.maxRuns
		p, _, err := servePhase(server.New(), base, opts, ph.name, clients, c.benchDuration(), mix)
		if err != nil {
			return err
		}
		rep.Phases = append(rep.Phases, p)
	}
	compareLoops(rep.Phases[0], rep.Phases[1])
	c.emit(rep)
	return nil
}

// compareLoops records the QPS speedup and the per-query bytes ratio of
// closed-loop phase p over the baseline phase base (< 1 means p read
// less per query).
func compareLoops(base, p Phase) {
	if q := base.Measured["qps"]; q > 0 {
		p.Measured["speedup_qps"] = p.Measured["qps"] / q
	}
	if b := base.Measured["bytes_per_query"]; b > 0 {
		p.Measured["bytes_ratio"] = p.Measured["bytes_per_query"] / b
	}
}

// request is one HTTP call of a closed-loop client, relative to the
// graph's URL; a request with a body is a JSON POST, one without a GET.
type request struct {
	path string
	body []byte
}

// servePhase serves basePath as the bench graph on srv, in-process, and
// runs one closed loop against it. The loop's clients must queue, not
// bounce, so the admission queue holds four runs per client.
func servePhase(srv *server.Server, basePath string, opts core.Options, name string, clients int, dur time.Duration, client func(ci int) func() request) (Phase, map[string]float64, error) {
	defer srv.Close()
	opts.MaxQueuedRuns = 4 * clients
	if err := srv.AddGraph(benchGraph, basePath, opts); err != nil {
		return Phase{}, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	return closedLoop(ts.URL, name, clients, dur, client)
}

// closedLoop runs clients concurrent clients against the bench graph at
// baseURL for dur. client(ci) builds client ci's request source; each
// client fires its requests back to back. Latencies merge into
// percentiles, and bytes read come from the storage counter at /metrics.
// The loop also returns how much every /metrics series moved over it,
// for the phase-specific series a caller reports.
func closedLoop(baseURL, name string, clients int, dur time.Duration, client func(ci int) func() request) (Phase, map[string]float64, error) {
	before, err := scrape(baseURL)
	if err != nil {
		return Phase{}, nil, fmt.Errorf("scraping %s/metrics before the loop: %w", baseURL, err)
	}
	url := strings.TrimRight(baseURL, "/") + "/graphs/" + benchGraph
	var (
		wg       sync.WaitGroup
		errCount atomic.Int64
		lats     = make([][]int64, clients)
	)
	begin := time.Now()
	for ci := 0; ci < clients; ci++ {
		next := client(ci)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Since(begin) < dur {
				r := next()
				qb := time.Now()
				var resp *http.Response
				var err error
				if r.body != nil {
					resp, err = http.Post(url+r.path, "application/json", bytes.NewReader(r.body))
				} else {
					resp, err = http.Get(url + r.path)
				}
				if err != nil {
					errCount.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCount.Add(1)
					continue
				}
				lats[ci] = append(lats[ci], int64(time.Since(qb)))
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	moved, err := scrape(baseURL)
	if err != nil {
		return Phase{}, nil, fmt.Errorf("scraping %s/metrics after the loop: %w", baseURL, err)
	}
	for k, v := range before {
		moved[k] -= v
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sorted := sortedCopy(all)
	n := float64(len(all))
	p := newPhase(name)
	m := p.Measured
	m["clients"] = float64(clients)
	m["duration_seconds"] = elapsed.Seconds()
	m["queries"] = n
	m["errors"] = float64(errCount.Load())
	m["qps"] = n / elapsed.Seconds()
	m["p50_ms"] = float64(percentile(sorted, 0.50)) / 1e6
	m["p95_ms"] = float64(percentile(sorted, 0.95)) / 1e6
	m["p99_ms"] = float64(percentile(sorted, 0.99)) / 1e6
	m["bytes_read"] = moved[series("gstore_storage_bytes_read_total")]
	if n > 0 {
		m["bytes_per_query"] = m["bytes_read"] / n
	}
	return p, moved, nil
}

// series is the /metrics key of a per-graph series of the bench graph.
func series(name string) string {
	return fmt.Sprintf("%s{graph=%q}", name, benchGraph)
}

// scrape fetches /metrics once and parses every sample line into a
// series → value map (series keyed with their labels, as exposed).
func scrape(baseURL string) (map[string]float64, error) {
	resp, err := http.Get(strings.TrimRight(baseURL, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// bucketQuantile estimates the q-quantile of the bench graph's histogram
// name from its cumulative _bucket series in m: the upper bound of the
// first bucket covering a q share of the observations. Past the largest
// finite bound it reports that bound, a floor on the true value.
func bucketQuantile(m map[string]float64, name string, q float64) float64 {
	prefix := fmt.Sprintf("%s_bucket{graph=%q,le=\"", name, benchGraph)
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	for k, cum := range m {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		// ParseFloat reads "+Inf" as +Inf.
		if b, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64); err == nil {
			buckets = append(buckets, bucket{b, cum})
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].cum == 0 {
		return 0
	}
	want := q * buckets[len(buckets)-1].cum
	finite := 0.0
	for _, b := range buckets {
		if math.IsInf(b.le, 1) {
			break
		}
		finite = b.le
		if b.cum >= want {
			return b.le
		}
	}
	return finite
}
