package exp

import (
	"bytes"
	"strings"
	"testing"
)

// quickConfig returns a tiny configuration so the whole suite runs in
// seconds under `go test`.
func quickConfig(t *testing.T, out *bytes.Buffer) *Config {
	t.Helper()
	c := &Config{
		WorkDir:    t.TempDir(),
		Scale:      11,
		EdgeFactor: 8,
		Seed:       99,
		Threads:    4,
		Out:        out,
		Quick:      true,
	}
	c.Defaults()
	return c
}

func TestFindRunners(t *testing.T) {
	if len(All()) < 16 {
		t.Fatalf("only %d runners registered", len(All()))
	}
	if _, ok := Find("fig9"); !ok {
		t.Fatal("fig9 missing")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("phantom runner found")
	}
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Fatalf("duplicate runner id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %q", r.ID)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := &Config{Quick: true}
	c.Defaults()
	if c.Scale != 14 || c.EdgeFactor != 16 || c.Threads <= 0 || c.Out == nil {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := &Config{Scale: 12}
	c2.Defaults()
	if c2.Scale != 12 {
		t.Fatal("explicit scale overridden")
	}
}

// Every experiment must run end to end at quick scale and produce a
// non-empty table.
func TestAllExperimentsQuick(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var out bytes.Buffer
			c := quickConfig(t, &out)
			if err := r.Run(c); err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			s := out.String()
			if !strings.Contains(s, "==") || len(strings.Split(s, "\n")) < 4 {
				t.Fatalf("%s produced no table:\n%s", r.ID, s)
			}
		})
	}
}

// Every benchmark run on one Config is recorded, not only the last, so
// gsbench -benchout can write them all.
func TestBenchReportsRecorded(t *testing.T) {
	var out bytes.Buffer
	c := quickConfig(t, &out)
	for _, id := range []string{"codec", "io"} {
		r, _ := Find(id)
		if err := r.Run(c); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	reps := c.Reports()
	if len(reps) != 2 || reps[0].Experiment != "codec" || reps[1].Experiment != "io" {
		t.Fatalf("recorded %d reports, want codec and io: %+v", len(reps), reps)
	}
	for _, rep := range reps {
		if rep.Scale != c.Scale || rep.Seed != c.Seed || len(rep.Phases) < 2 {
			t.Fatalf("%s: header %d/%d, %d phases", rep.Experiment, rep.Scale, rep.Seed, len(rep.Phases))
		}
		for _, p := range rep.Phases {
			if len(p.Counters) == 0 || len(p.Measured) == 0 {
				t.Fatalf("%s/%s: empty counters or measured values", rep.Experiment, p.Name)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []int64{5, 1, 4, 2, 3}
	s := sortedCopy(v)
	if s[0] != 1 || s[4] != 5 {
		t.Fatal("sortedCopy broken")
	}
	if percentile(s, 0) != 1 || percentile(s, 1) != 5 || percentile(s, 0.5) != 3 {
		t.Fatal("percentile broken")
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
	if v[0] != 5 {
		t.Fatal("sortedCopy mutated input")
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(0, 1, 10) != 1 || clamp(50, 1, 10) != 10 {
		t.Fatal("clamp broken")
	}
}
