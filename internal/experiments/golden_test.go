package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton3/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this tree")

// goldenJob is one recorded grid job: what the CLI prints (Text) and what
// the -json report stores (Data).
type goldenJob struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	Text string `json:"text"`
	Data any    `json:"data"`
}

// goldenParams is the recorded cell size: one 2x2x2 cell per pattern at
// loads 0.5 and 2, 8 measured and 2 warmup packets per node, with the
// faultsweep grid replaced by one dead link.
func goldenParams(kind string, metrics bool, shards int) Params {
	p := DefaultParams()
	p.Shapes = []topo.Shape{{X: 2, Y: 2, Z: 2}}
	p.Loads = []float64{0.5, 2}
	p.Packets, p.Warmup = 8, 2
	p.Shards = shards
	p.Saturate = kind == "saturate"
	p.FaultSweep = kind == "faultsweep"
	p.FaultPlan = "0,0,0:x+:dead"
	p.Metrics = metrics
	return p
}

// runGolden runs every job of one sweep kind and records it.
func runGolden(t *testing.T, p Params, kind string) []byte {
	t.Helper()
	var got []goldenJob
	for _, j := range SelectJobs(Jobs(p), kind) {
		out, err := j.Run(nil)
		if err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		got = append(got, goldenJob{Name: j.Name, Seed: j.Seed, Text: out.Text, Data: out.Data})
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSweepGolden pins netsweep, saturate and faultsweep output — rendered
// text and JSON data, metrics off and on — against captures committed in
// testdata/, at one and two kernel shards. The captures come from the
// tree before the sweep harnesses were merged into one point engine; any
// byte of drift is a behaviour change and needs a recapture (-update)
// with a reason.
func TestSweepGolden(t *testing.T) {
	for _, kind := range []string{"netsweep", "saturate", "faultsweep"} {
		for _, metrics := range []bool{false, true} {
			name := kind
			if metrics {
				name += "-metrics"
			}
			path := filepath.Join("testdata", name+".golden")
			t.Run(name, func(t *testing.T) {
				if *updateGolden {
					if err := os.WriteFile(path, runGolden(t, goldenParams(kind, metrics, 1), kind), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{1, 2} {
					got := runGolden(t, goldenParams(kind, metrics, shards), kind)
					if string(got) != string(want) {
						t.Fatalf("shards=%d: output drifted from %s:\n%s", shards, path, got)
					}
				}
			})
		}
	}
}

// TestGridJobsGolden pins the name, seed and order of every job the
// registry builds with all gated grids on: job names are the -json row
// names and seeds fix every simulated number, so neither may move.
func TestGridJobsGolden(t *testing.T) {
	p := DefaultParams()
	p.Saturate, p.MDSweep, p.FaultSweep = true, true, true
	var b strings.Builder
	for _, j := range Jobs(p) {
		fmt.Fprintf(&b, "%s %d\n", j.Name, j.Seed)
	}
	path := filepath.Join("testdata", "jobs.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("job registry drifted from %s:\n%s", path, b.String())
	}
}
