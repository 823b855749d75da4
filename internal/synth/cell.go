package synth

import (
	"fmt"

	"anton3/internal/packet"
	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// Cell describes one sweep cell: a pattern on one torus shape, measured
// for every policy at every offered load. It is the single description
// every sweep entry (Sweep here, flow.Sweep and flow.FaultSweep) runs.
type Cell struct {
	Shape    topo.Shape
	Pattern  Pattern
	Policies []route.Policy
	// Loads are the offered injection rates per node, normalized to one
	// channel slice's reference-packet rate: at load 1.0 every node
	// injects, on average, one RefPacketBits packet per channel-slice
	// serialization interval. Uniform traffic on the 128-node machine
	// saturates around 3 in these units (12 outbound slices per node /
	// ~4 average hops). The closed-loop knee search needs them ascending.
	Loads []float64
	// Packets is the measured packet count per node; Warmup packets
	// precede them, excluded from the statistics. The closed-loop sweeps
	// read both per unit load and scale them up with the load.
	Packets int
	Warmup  int
	// Seed is the cell seed; every point seed derives from it and the
	// point's position in the cell.
	Seed uint64
	// QueueFlits is the resolved per-VC ingress queue depth: 0 is the
	// open loop (no VC queues), anything else bounds the queues.
	// InjDepth is the per-source injection window in refused packets
	// (0 = unbounded in open loop; the closed-loop sweeps take their
	// default for 0).
	QueueFlits int
	InjDepth   int
}

// Validate reports the first out-of-range size of the cell, or nil.
func (c Cell) Validate() error {
	switch {
	case c.Shape.Nodes() < 2:
		// A single node has no channels to send on.
		return fmt.Errorf("shape %s has %d node(s), a sweep needs >= 2", c.Shape, c.Shape.Nodes())
	case c.Packets < 1:
		return fmt.Errorf("packets per node must be >= 1 (got %d)", c.Packets)
	case c.Warmup < 0:
		return fmt.Errorf("warmup packets per node must be >= 0 (got %d)", c.Warmup)
	case len(c.Loads) == 0:
		return fmt.Errorf("no offered loads")
	case c.QueueFlits != 0 && c.QueueFlits < packet.MaxFlitsPerPkt:
		return fmt.Errorf("queue depth must be 0 or >= %d flits, the largest packet (got %d)", packet.MaxFlitsPerPkt, c.QueueFlits)
	case c.InjDepth < 0:
		return fmt.Errorf("injection window must be >= 0 packets (got %d)", c.InjDepth)
	}
	for _, l := range c.Loads {
		if !(l > 0) {
			return fmt.Errorf("offered loads must be > 0 (got %g)", l)
		}
	}
	return nil
}

// Opts gates the optional layers of a sweep; the zero value runs the
// plain sweep. Metrics arms the sharded telemetry collector (curves gain
// a Tel summary and renders append "telemetry" lines), Trace drains
// packet-lifecycle tracks — prefixed with the policy name — into the
// given recorder, and Cache memoizes every closed-loop point (the
// open-loop Sweep caches whole cells only, at the runner). All of them
// leave the primary numbers byte-identical.
type Opts struct {
	Metrics bool
	Trace   *trace.Recorder
	Cache   *resultstore.Store
}
