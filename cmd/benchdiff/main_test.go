package main

import (
	"io"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/exp"
)

// reports builds a two-phase codec report whose values the cases edit.
func reports() []exp.Report {
	phase := func(name string, tileBytes int64, qps float64) exp.Phase {
		return exp.Phase{
			Name:     name,
			Counters: map[string]int64{"tile_bytes": tileBytes, "bytes_read": 2491228},
			Measured: map[string]float64{"qps": qps},
		}
	}
	return []exp.Report{{Experiment: "codec", Scale: 12, Seed: 7, Phases: []exp.Phase{
		phase("snb", 262144, 8.2), phase("v3", 134751, 24.3),
	}}}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name string
		edit func(r []exp.Report) []exp.Report
		fail string // substring of the one expected failure; "" passes
	}{
		{"identical", func(r []exp.Report) []exp.Report { return r }, ""},
		{"measured drift passes", func(r []exp.Report) []exp.Report {
			r[0].Phases[1].Measured["qps"] = 3 // 8x slower: printed, not gated
			return r
		}, ""},
		{"extra key passes", func(r []exp.Report) []exp.Report {
			r[0].Phases[0].Counters["new_counter"] = 1
			return r
		}, ""},
		{"changed counter", func(r []exp.Report) []exp.Report {
			r[0].Phases[1].Counters["tile_bytes"]++
			return r
		}, `counter "codec/v3.tile_bytes" is 134752, baseline 134751`},
		{"missing counter", func(r []exp.Report) []exp.Report {
			delete(r[0].Phases[0].Counters, "bytes_read")
			return r
		}, `counter "codec/snb.bytes_read" missing`},
		{"missing measured value", func(r []exp.Report) []exp.Report {
			delete(r[0].Phases[1].Measured, "qps")
			return r
		}, `measured value "codec/v3.qps" missing`},
		{"missing phase", func(r []exp.Report) []exp.Report {
			r[0].Phases = r[0].Phases[:1]
			return r
		}, `phase "codec/v3" missing`},
		{"missing experiment", func(r []exp.Report) []exp.Report { return nil }, `experiment "codec" missing`},
		{"other seed", func(r []exp.Report) []exp.Report {
			r[0].Seed = 8
			return r
		}, "seed 8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := compare(io.Discard, reports(), tc.edit(reports()))
			if tc.fail == "" {
				if len(fails) != 0 {
					t.Fatalf("want pass, got %q", fails)
				}
				return
			}
			if len(fails) != 1 || !strings.Contains(fails[0], tc.fail) {
				t.Fatalf("want one failure containing %q, got %q", tc.fail, fails)
			}
		})
	}
}
