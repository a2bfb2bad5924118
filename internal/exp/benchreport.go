package exp

import (
	"fmt"
	"math"
	"slices"

	"github.com/gwu-systems/gstore/internal/report"
)

// Report is the one result schema of every benchmark runner (serve,
// serve-personal, ingest, codec, io, chaos). gsbench -benchout writes
// the reports of a run as one JSON array, and cmd/benchdiff compares two
// such files phase by phase.
type Report struct {
	Experiment string  `json:"experiment"`
	Scale      uint    `json:"scale"`
	Seed       uint64  `json:"seed"`
	Phases     []Phase `json:"phases"`
}

// Phase is one configuration a benchmark measured ("serialized", "v3",
// "file/w4", ...).
type Phase struct {
	Name string `json:"name"`
	// Counters are deterministic for a given configuration and seed:
	// byte, request and mutation counts. benchdiff fails when one differs.
	Counters map[string]int64 `json:"counters"`
	// Measured holds timings, rates and ratios; benchdiff prints their
	// drift only.
	Measured map[string]float64 `json:"measured"`
}

func newPhase(name string) Phase {
	return Phase{Name: name, Counters: map[string]int64{}, Measured: map[string]float64{}}
}

// emit prints r as one metric × phase table, counters first, and
// records it for Reports.
func (c *Config) emit(r Report) {
	header := []string{"metric"}
	var counters, measured []string
	for _, p := range r.Phases {
		header = append(header, p.Name)
		counters = append(counters, keys(p.Counters)...)
		measured = append(measured, keys(p.Measured)...)
	}
	tb := report.New(fmt.Sprintf("%s (scale %d, seed %d)", r.Experiment, r.Scale, r.Seed), header...)
	rows := func(names []string, cell func(p Phase, k string) (string, bool)) {
		slices.Sort(names)
		for _, k := range slices.Compact(names) {
			row := []interface{}{k}
			for _, p := range r.Phases {
				s, ok := cell(p, k)
				if !ok {
					s = "-"
				}
				row = append(row, s)
			}
			tb.Row(row...)
		}
	}
	rows(counters, func(p Phase, k string) (string, bool) {
		v, ok := p.Counters[k]
		return fmt.Sprint(v), ok
	})
	rows(measured, func(p Phase, k string) (string, bool) {
		v, ok := p.Measured[k]
		return formatMeasured(v), ok
	})
	tb.Fprint(c.Out)
	c.reports = append(c.reports, r)
}

// Reports returns every report the benchmark runners emitted on c, in
// run order.
func (c *Config) Reports() []Report { return c.reports }

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// formatMeasured keeps large values whole and small ones to three
// significant digits.
func formatMeasured(v float64) string {
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}
