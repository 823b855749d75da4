package synth

import (
	"sort"

	"anton3/internal/fault"
	"anton3/internal/machine"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// RefPacketBits is the wire size of the standard 24-byte counted-write
// packet (two 96-bit flits), the unit the offered-load normalization is
// expressed in.
const RefPacketBits = 192

// Engine is the point engine behind every network sweep. It owns one
// long-lived machine and runs any number of (pattern, load, seed) points
// on it: it draws the offered schedule, offers it through one source per
// node, builds and sends the pre-routed packets, and accumulates latency,
// hop and network-entry counts per shard.
//
// The engine has two modes, set by how it is built. Open loop (netsweep):
// no per-VC ingress queues and an unbounded injection window, so every
// packet enters the network at its scheduled instant. Closed loop
// (saturate, faultsweep): bounded per-VC queues refuse packets the
// network cannot take, and each source holds at most window refused
// packets before its offered process backs up.
//
// Reusing the machine keeps a sweep allocation-free in steady state — the
// kernel event pools, packet free lists, schedule and latency buffers all
// persist across points — and a reset machine is byte-identical to a
// fresh one, so reuse never changes a digit of output.
type Engine struct {
	m      *machine.Machine
	shape  topo.Shape
	core   packet.CoreID // GC 0, the endpoint every packet uses
	base   sim.Time      // serialization time of RefPacketBits (load unit)
	window int           // refused packets a source may hold; 0 = unbounded

	total  int // packets per node including warmup, for the current point
	warmup int
	sched  schedule
	srcs   []source

	// Per-shard accumulators: network entries land on the source node's
	// shard and deliveries on the destination node's, so each shard writes
	// its own sink and Run reduces them with order-insensitive operations.
	sinks []sink
	all   []float64 // merged latencies, reused across points

	// tel accumulates telemetry over every point since the engine was
	// built; ptTel holds the last point's block. Both stay zero unless
	// EnableMetrics armed the machine.
	tel   telemetry.Shard
	ptTel telemetry.Shard
}

// NewEngine builds the measurement machine: compression off (network-only
// timing), the given routing policy, sharded across the given kernel count
// (0 or 1 = sequential). queueFlits > 0 turns on per-VC ingress queues of
// that depth (closed loop); window bounds each source's refused packets
// (0 = unbounded). A non-empty fault plan is applied to the machine. The
// load unit is always the healthy serialization time — serdes degradation
// applies inside transmit, not SerializeTime — so an offered load means
// the same thing on a degraded network as on a healthy one.
func NewEngine(shape topo.Shape, policy route.Policy, shards, queueFlits, window int, plan *fault.Plan) *Engine {
	mcfg := machine.DefaultConfig(shape)
	mcfg.Compress = serdes.CompressConfig{} // raw wire timing
	mcfg.Policy = policy
	mcfg.Shards = shards
	mcfg.VCQueueFlits = queueFlits
	if !plan.Empty() {
		mcfg.Faults = plan
	}
	m := machine.New(mcfg)
	refCh := m.Node(shape.CoordOf(0)).ChannelSpecs()[0]
	e := &Engine{
		m:      m,
		shape:  shape,
		core:   m.GC(shape.CoordOf(0), 0).ID,
		base:   m.Node(shape.CoordOf(0)).Channel(refCh).SerializeTime(RefPacketBits),
		window: window,
		sinks:  make([]sink, m.NumShards()),
	}
	for s := range e.sinks {
		e.sinks[s].e = e
	}
	return e
}

// Machine returns the engine's machine.
func (e *Engine) Machine() *machine.Machine { return e.m }

// Base returns the load unit: the serialization time of one
// RefPacketBits packet on a healthy channel slice.
func (e *Engine) Base() sim.Time { return e.base }

// EnableMetrics arms the telemetry collector on the machine: sharded
// counters and latency/park histograms, accumulated into Telemetry()
// across every subsequent point.
func (e *Engine) EnableMetrics() { e.m.EnableTelemetry() }

// DrainTrace moves every recorded trace interval into dst.
func (e *Engine) DrainTrace(dst *trace.Recorder) { e.m.DrainPacketTrace(dst) }

// Telemetry returns the telemetry accumulated across every point since
// the engine was built (all zeros unless EnableMetrics was called).
func (e *Engine) Telemetry() *telemetry.Shard { return &e.tel }

// Observe arms the layers opts asks for: metrics, and packet-lifecycle
// tracing under the given track prefix (intervals accumulate until
// DrainTrace).
func (e *Engine) Observe(opts Opts, track string) {
	if opts.Metrics {
		e.EnableMetrics()
	}
	if opts.Trace != nil {
		e.m.AttachPacketTrace(track)
	}
}

// Outcome is the raw measurement of one point; the harnesses project it
// onto their Point types.
type Outcome struct {
	Nodes   int // injecting nodes
	PerNode int // packets offered per node, warmup included

	// Measured counts the delivered packets of the measured window (past
	// each node's warmup); AvgNs and P99Ns are their latencies from the
	// intended injection instant, HopSum their summed torus hop counts.
	Measured     int
	AvgNs, P99Ns float64
	HopSum       int64

	Entered   int64    // network entries, warmup included
	Delivered int64    // deliveries, warmup included
	LastEntry sim.Time // latest network entry
	OfferEnd  sim.Time // last intended injection instant
	DrainEnd  sim.Time // last executed event

	// Tel is the point's merged telemetry block (nil unless EnableMetrics);
	// it stays valid until the next run.
	Tel *telemetry.Shard
}

// Run offers Pattern traffic at one load — packets measured plus warmup
// packets per node — and runs the machine until it drains. The machine
// is reset to the seed, and every random choice derives from the seed
// alone: the schedule pre-draws destinations and routes (see
// schedule.draw, packet.PreRouted), and same-time ties order by lineage.
// A machine without VC queues runs lineage order only when sharded, the
// sequential run being the order it reproduces; one with VC queues
// orders by lineage at every shard count, because credit arrivals revive
// parked packets from foreign events. Either way results are byte-stable
// across hosts, worker counts, machine reuse and shard counts.
func (e *Engine) Run(pat Pattern, load float64, packets, warmup int, seed uint64) Outcome {
	if load <= 0 || packets <= 0 {
		panic("synth: load and packet count must be positive")
	}
	e.m.Reset(seed)
	e.total = warmup + packets
	e.warmup = warmup
	nodes := e.shape.Nodes()
	for s := range e.sinks {
		e.sinks[s].reset()
	}

	offerEnd := e.sched.draw(e.m, e.shape, pat, float64(e.base)/load, e.total, seed)

	e.srcs = grow(e.srcs, nodes)
	for i := range e.srcs {
		e.srcs[i] = source{e: e, node: int32(i), shard: int32(e.m.ShardOf(e.shape.CoordOf(i)))}
	}
	// Offer the schedule in node-major (setup sequence) order, each
	// instant on the kernel of the shard owning its source node. The
	// future instants wait in the kernel's far heap and enter its bucket
	// ring as the window reaches them, so they never deepen the hot loop's
	// queue.
	for i := range e.srcs {
		kern := e.m.NodeKernel(e.shape.CoordOf(i))
		for k := 0; k < e.total; k++ {
			kern.AtActor(e.sched.times[i*e.total+k], &e.srcs[i])
		}
	}

	if e.m.Config().VCQueueFlits > 0 {
		e.m.ForceLineageRun()
	} else {
		e.m.BeginLineageRun()
	}
	o := Outcome{Nodes: nodes, PerNode: e.total, OfferEnd: offerEnd, DrainEnd: e.m.Run()}

	if c := e.m.Telemetry(); c != nil {
		e.m.CollectChannelBusy()
		e.ptTel = *c.Merged()
		e.tel.Merge(&e.ptTel)
		o.Tel = &e.ptTel
	}

	e.all = e.all[:0]
	for s := range e.sinks {
		sk := &e.sinks[s]
		e.all = append(e.all, sk.lats...)
		o.HopSum += sk.hops
		o.Entered += sk.entered
		o.Delivered += sk.delivered
		o.LastEntry = max(o.LastEntry, sk.lastEntry)
	}
	if o.Measured = len(e.all); o.Measured > 0 {
		sort.Float64s(e.all)
		var sum float64
		for _, l := range e.all {
			sum += l
		}
		o.AvgNs = sum / float64(o.Measured)
		o.P99Ns = e.all[o.Measured*99/100]
	}
	return o
}

// source is one node's traffic generator and its sim.Actor: each of the
// node's scheduled instants fires it once, so the steady state carries no
// closures and the offer events keep global setup order, the property
// shard invariance rests on. Under a bounded window it holds at most
// window packets the network has refused (parked at their first-hop
// channel for lack of credits); when the window is full the offered
// process backs up into backlog and drains, in schedule order, as
// acceptances free slots.
type source struct {
	e       *Engine
	node    int32
	shard   int32
	parked  int32 // packets currently refused by the network
	backlog int32 // offered instants that found the window full
	sent    int32 // packets emitted so far (next flat = node*total + sent)
}

// Act offers the node's next scheduled packet.
func (s *source) Act() {
	if w := s.e.window; w > 0 && (int(s.parked) >= w || s.backlog > 0) {
		s.backlog++
		return
	}
	s.emit()
}

// Accepted frees a window slot (packet.Accepter): the parked packet
// started injecting. Backlogged instants drain while the window has room.
func (s *source) Accepted(p *packet.Packet) {
	e := s.e
	e.sinks[s.shard].enter(e.m.NodeKernel(p.SrcNode).Now())
	s.parked--
	for s.backlog > 0 && int(s.parked) < e.window {
		s.backlog--
		s.emit()
	}
}

// emit builds and sends the source's next scheduled packet. A packet the
// network accepts at once is a network entry now; a refused one parks
// (packet.WalkParked) and enters when its Accepted callback fires.
func (s *source) emit() {
	e := s.e
	flat := int(s.node)*e.total + int(s.sent)
	s.sent++
	src := e.shape.CoordOf(int(s.node))
	dst := e.shape.CoordOf(int(e.sched.dsts[flat]))
	p := e.m.NewPacketAt(src)
	atom := uint32(flat)
	p.Type = packet.Position
	p.SrcNode, p.DstNode = src, dst
	p.SrcCore, p.DstCore = e.core, e.core
	p.AtomID = atom
	p.SetQuad([4]uint32{atom, 0xfeed, 0xbeef, 0xcafe})
	p.PreRouted = true
	p.Order = e.sched.orders[flat]
	// Position packets break the even-ring direction tie by atom ID; the
	// machine's tie draw was still consumed by DrawRoute, exactly as Send
	// consumes it before overriding.
	p.Tie = atom&2 != 0
	p.Inj = uint64(flat)
	p.OnAccept = s
	e.m.Send(p, &e.sinks[e.m.ShardOf(dst)])
	if p.State == packet.WalkParked {
		s.parked++
	} else {
		e.sinks[s.shard].enter(e.m.NodeKernel(src).Now())
	}
}

// sink holds one shard's accumulators and records the deliveries landing
// on that shard (packet.Deliverer).
type sink struct {
	e         *Engine
	lats      []float64
	hops      int64
	delivered int64
	entered   int64
	lastEntry sim.Time
}

func (s *sink) reset() {
	*s = sink{e: s.e, lats: s.lats[:0]}
}

// enter records one network entry at time now.
func (s *sink) enter(now sim.Time) {
	s.entered++
	s.lastEntry = max(s.lastEntry, now)
}

// Deliver records one delivered packet. Latency runs from the packet's
// intended injection instant, so time a closed-loop source held it back
// is charged to it; in open loop that instant is the injection itself.
func (s *sink) Deliver(p *packet.Packet) {
	e := s.e
	s.delivered++
	flat := int(p.AtomID)
	if flat%e.total < e.warmup {
		return
	}
	now := e.m.NodeKernel(p.DstNode).Now()
	s.lats = append(s.lats, (now - e.sched.times[flat]).Nanoseconds())
	s.hops += int64(e.shape.HopDist(p.SrcNode, p.DstNode))
}
