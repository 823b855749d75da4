package synth

import (
	"fmt"
	"strings"

	"anton3/internal/route"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
)

// Point is the measured outcome at one offered load.
type Point struct {
	Load    float64 `json:"load"`
	AvgNs   float64 `json:"avg_ns"`
	P99Ns   float64 `json:"p99_ns"`
	AvgHops float64 `json:"avg_hops"`
	// TailNs is the drain tail: how long after the last injection the
	// network needed to empty. Below saturation it sits near the
	// unloaded flight latency; past saturation it grows with the backlog
	// the offered load left behind, making it the crispest saturation
	// signal at any window length.
	TailNs float64 `json:"tail_ns"`
}

// Harness is the netsweep rig: the point engine, projected onto Point.
// NewHarness builds it in open loop (VC queues off, unbounded injection
// window), the mode netsweep runs.
type Harness struct {
	*Engine
}

// NewHarness builds the open-loop measurement machine for one (shape,
// policy, shard count) triple (shards 0 or 1 = sequential).
func NewHarness(shape topo.Shape, policy route.Policy, shards int) *Harness {
	return &Harness{NewEngine(shape, policy, shards, 0, 0, nil)}
}

// RunPoint injects Pattern traffic at one offered load and returns the
// latency statistics of the measured window. The machine drains
// completely, so queueing delay past saturation is fully charged to the
// packets that incurred it; see Engine.Run for the determinism
// guarantees.
func (h *Harness) RunPoint(pat Pattern, load float64, packets, warmup int, seed uint64) Point {
	o := h.Run(pat, load, packets, warmup, seed)
	if o.Measured != o.Nodes*packets {
		panic(fmt.Sprintf("synth: delivered %d of %d measured packets", o.Measured, o.Nodes*packets))
	}
	return Point{
		Load:    load,
		AvgNs:   o.AvgNs,
		P99Ns:   o.P99Ns,
		AvgHops: float64(o.HopSum) / float64(o.Measured),
		TailNs:  (o.DrainEnd - o.OfferEnd).Nanoseconds(),
	}
}

// Curve is one policy's load/latency curve under one pattern.
type Curve struct {
	Policy string  `json:"policy"`
	Points []Point `json:"points"`
	// Tel aggregates telemetry across every load point of this policy
	// (nil unless the sweep ran with Opts.Metrics).
	Tel *telemetry.Summary `json:"telemetry,omitempty"`
}

// SweepResult is one pattern x shape table of the netsweep experiment.
type SweepResult struct {
	Shape   string  `json:"shape"`
	Nodes   int     `json:"nodes"`
	Pattern string  `json:"pattern"`
	Curves  []Curve `json:"curves"`
}

// Sweep measures the cell's pattern across every policy and offered load
// with the cell's queue depth and window (0 and 0: open loop), sharding
// each machine across the given kernel count. Each (policy, load) point
// runs with a seed derived from the cell seed and its position only, so
// the sweep decomposes freely across runner workers without changing a
// digit; points of one policy share one machine (reset between loads),
// which keeps the sweep's steady state allocation-free.
func Sweep(c Cell, shards int, opts Opts) SweepResult {
	res := SweepResult{
		Shape:   c.Shape.String(),
		Nodes:   c.Shape.Nodes(),
		Pattern: c.Pattern.Name,
		Curves:  make([]Curve, len(c.Policies)),
	}
	for pi, pol := range c.Policies {
		cv := Curve{Policy: pol.Name()}
		h := &Harness{NewEngine(c.Shape, pol, shards, c.QueueFlits, c.InjDepth, nil)}
		h.Observe(opts, pol.Name())
		for li, load := range c.Loads {
			cv.Points = append(cv.Points, h.RunPoint(
				c.Pattern, load, c.Packets, c.Warmup,
				c.Seed+uint64(pi)*1009+uint64(li)*9176,
			))
		}
		if opts.Metrics {
			sum := h.Telemetry().Summary()
			cv.Tel = &sum
		}
		if opts.Trace != nil {
			h.DrainTrace(opts.Trace)
		}
		res.Curves[pi] = cv
	}
	return res
}

// Render formats the table: one row per offered load, an avg/p99 column
// pair per policy.
func (r SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Netsweep: pattern %s on %s (%d nodes) — one-way latency vs offered load\n",
		r.Pattern, r.Shape, r.Nodes)
	fmt.Fprintf(&b, "%6s", "load")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %12s %9s", c.Policy+" avg", "p99")
	}
	b.WriteByte('\n')
	if len(r.Curves) == 0 {
		return b.String()
	}
	for i := range r.Curves[0].Points {
		fmt.Fprintf(&b, "%6.2f", r.Curves[0].Points[i].Load)
		for _, c := range r.Curves {
			fmt.Fprintf(&b, " %12.1f %9.1f", c.Points[i].AvgNs, c.Points[i].P99Ns)
		}
		b.WriteByte('\n')
	}
	for _, c := range r.Curves {
		if c.Tel == nil {
			continue
		}
		b.WriteString(c.Tel.Line(c.Policy))
		b.WriteByte('\n')
	}
	return b.String()
}
