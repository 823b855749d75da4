package synth

import (
	"math"
	"strings"
	"testing"

	"anton3/internal/packet"
	"anton3/internal/topo"
)

// TestCellValidate pins the size checks the CLI runs before any job
// builds: each out-of-range field is named in a readable error, and every
// boundary value that a sweep can run passes.
func TestCellValidate(t *testing.T) {
	ok := Cell{Shape: topo.Shape{X: 2, Y: 2, Z: 2}, Loads: []float64{0.5, 2}, Packets: 8, Warmup: 2}
	cases := []struct {
		name string
		edit func(*Cell)
		want string // error substring; "" = valid
	}{
		{"defaults", func(*Cell) {}, ""},
		{"two nodes", func(c *Cell) { c.Shape = topo.Shape{X: 1, Y: 1, Z: 2} }, ""},
		{"single node", func(c *Cell) { c.Shape = topo.Shape{X: 1, Y: 1, Z: 1} }, "shape 1x1x1 has 1 node(s), a sweep needs >= 2"},
		{"one packet, no warmup", func(c *Cell) { c.Packets, c.Warmup = 1, 0 }, ""},
		{"zero packets", func(c *Cell) { c.Packets = 0 }, "packets per node must be >= 1 (got 0)"},
		{"negative packets", func(c *Cell) { c.Packets = -3 }, "packets per node must be >= 1 (got -3)"},
		{"negative warmup", func(c *Cell) { c.Warmup = -1 }, "warmup packets per node must be >= 0 (got -1)"},
		{"no loads", func(c *Cell) { c.Loads = nil }, "no offered loads"},
		{"zero load", func(c *Cell) { c.Loads = []float64{0.5, 0} }, "offered loads must be > 0 (got 0)"},
		{"negative load", func(c *Cell) { c.Loads = []float64{-1} }, "offered loads must be > 0 (got -1)"},
		{"NaN load", func(c *Cell) { c.Loads = []float64{math.NaN()} }, "offered loads must be > 0 (got NaN)"},
		{"open loop queue", func(c *Cell) { c.QueueFlits = 0 }, ""},
		{"smallest queue", func(c *Cell) { c.QueueFlits = packet.MaxFlitsPerPkt }, ""},
		{"queue below a packet", func(c *Cell) { c.QueueFlits = packet.MaxFlitsPerPkt - 1 }, "queue depth must be 0 or >= "},
		{"negative queue", func(c *Cell) { c.QueueFlits = -4 }, "queue depth must be 0 or >= "},
		{"unbounded window", func(c *Cell) { c.InjDepth = 0 }, ""},
		{"window", func(c *Cell) { c.InjDepth = 1 }, ""},
		{"negative window", func(c *Cell) { c.InjDepth = -4 }, "injection window must be >= 0 packets (got -4)"},
	}
	for _, tc := range cases {
		c := ok
		tc.edit(&c)
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
