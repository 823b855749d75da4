package main

import (
	"fmt"
	"math"

	"anton3/internal/flow"
	"anton3/internal/machine"
	"anton3/internal/md"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/traffic"
)

// A workload is a fixed list of cells the benchmark repeats as one pass.
// Each cell builds its harness, machine or water system inside b.setup
// (timed as set-up) and then issues its operations through b.op, one
// closed-loop call after another on one goroutine at one kernel shard.
type workload struct {
	name string
	pass func(b *bench, seed int64)
	// pairs counts the in-cutoff pairs of each MD system a pass builds,
	// weighted by the timesteps the pass runs on it (nil without MD).
	pairs func(seed int64) (pairs, pairSteps float64)
}

var workloads = []workload{
	{name: "saturate-bitcomp", pass: saturateBitcomp},
	{name: "netsweep-uniform512", pass: netsweepUniform512},
	{name: "md-replay", pass: mdReplay, pairs: mdReplayPairs},
	{name: "md-timestep", pass: mdTimestep, pairs: mdTimestepPairs},
}

// Cell sizes. Each workload's default-seed cell is the one the named CLI
// command runs, so its printed results are directly comparable:
//
//	saturate-bitcomp:    flow.RunPoint at the saturate cell seed of
//	                     4x4x8/bitcomp; the load ladder is fixed (no knee
//	                     search) and straddles every policy's knee.
//	netsweep-uniform512: anton3 netsweep -shapes 8x8x8 -npkts 16 -nwarm 4
//	                     (the uniform table).
//	md-replay:           anton3 fig9a, the 8000 and 65000 atom rows.
//	md-timestep:         anton3 fig12.
var (
	satShape   = topo.Shape{X: 4, Y: 4, Z: 8}
	satLoads   = []float64{0.5, 1.0, 1.1, 1.2, 1.3, 1.6, 2.0}
	satPackets = 96
	satWarmup  = 32

	netShape   = topo.Shape{X: 8, Y: 8, Z: 8}
	netLoads   = []float64{0.5, 1, 2, 3, 4}
	netPackets = 16
	netWarmup  = 4

	replaySizes               = []int{8000, 65000}
	replayWarm, replayMeasure = 3, 4
	replayModes               = []serdes.CompressConfig{{INZ: true}, {INZ: true, Pcache: true}}

	stepAtoms = 32751
	stepSteps = 3
	stepModes = []serdes.CompressConfig{{}, {INZ: true, Pcache: true}}
	md8       = topo.Shape{X: 2, Y: 2, Z: 2}
)

// Base seeds of the CLI cells; seedOf shifts them by the workload seed so
// the default seed reproduces the CLI and any other seed draws new inputs.
const (
	satBaseSeed    = 9001 // saturateJobs: 9000 + 100*shape + pattern(bitcomp)
	netBaseSeed    = 7000 // netsweepJobs: 7000 + 100*shape + pattern(uniform)
	replayBaseSeed = 1234 // Fig9a's water seed
	stepBaseSeed   = 777  // Fig12's water seed
	stepMachSeed   = 1    // machine.DefaultConfig's seed
)

func seedOf(base uint64, seed int64) uint64 {
	return base + uint64(seed-defaultSeed)*104729
}

func saturateBitcomp(b *bench, seed int64) {
	pat := synth.BitComplement()
	s := seedOf(satBaseSeed, seed)
	for _, pol := range route.SaturatePolicies() {
		var h *flow.Harness
		b.setup("setup.harness_s", func() {
			h = flow.NewHarness(satShape, pol, 1, 0, 0)
			if b.traced {
				h.EnableMetrics()
			}
		})
		for li, load := range satLoads {
			b.op("flow.run_point_s", func(d *digest) error {
				del0 := h.Telemetry().Ctr[telemetry.CtrDelivered]
				pt := h.RunPoint(pat, load, satPackets, satWarmup, s+uint64(li)*9176)
				d.floats(pt.Load, pt.Offered, pt.Accepted, pt.AvgNs, pt.P99Ns)
				d.ints(int64(pt.Undelivered))
				// RunPoint scales the per-node budgets with the load.
				scale := math.Max(1, load)
				pkts := satShape.Nodes() * (int(math.Ceil(float64(satPackets)*scale)) + int(math.Ceil(float64(satWarmup)*scale)))
				b.cur.pkts += float64(pkts)
				b.report(fmt.Sprintf("saturate %s load %.2f", pol.Name(), load),
					fmt.Sprintf("offered %.4f accepted %.4f avg %.1f ns p99 %.1f ns", pt.Offered, pt.Accepted, pt.AvgNs, pt.P99Ns))
				if pt.Undelivered > 0 {
					return fmt.Errorf("%s load %.2f: %d packets undelivered", pol.Name(), load, pt.Undelivered)
				}
				if got := h.Telemetry().Ctr[telemetry.CtrDelivered] - del0; b.traced && got != int64(pkts) {
					return fmt.Errorf("%s load %.2f: telemetry delivered %d of %d packets", pol.Name(), load, got, pkts)
				}
				// The repo's own conservation test allows the same
				// rounding slack (flow.TestAcceptedNeverExceedsOffered).
				if pt.Accepted > pt.Offered*(1+1e-12) || pt.Accepted <= 0 {
					return fmt.Errorf("%s load %.2f: accepted %g vs offered %g", pol.Name(), load, pt.Accepted, pt.Offered)
				}
				return nil
			})
		}
		if b.traced {
			b.cur.tel.Merge(h.Telemetry())
		}
	}
}

func netsweepUniform512(b *bench, seed int64) {
	pat := synth.Uniform()
	s := seedOf(netBaseSeed, seed)
	res := synth.SweepResult{Shape: netShape.String(), Nodes: netShape.Nodes(), Pattern: pat.Name}
	for pi, pol := range route.Policies() {
		var h *synth.Harness
		b.setup("setup.harness_s", func() {
			h = synth.NewHarness(netShape, pol, 1)
			if b.traced {
				h.EnableMetrics()
			}
		})
		c := synth.Curve{Policy: pol.Name()}
		for li, load := range netLoads {
			b.op("synth.run_point_s", func(d *digest) error {
				del0 := h.Telemetry().Ctr[telemetry.CtrDelivered]
				pt := h.RunPoint(pat, load, netPackets, netWarmup, s+uint64(pi)*1009+uint64(li)*9176)
				d.floats(pt.Load, pt.AvgNs, pt.P99Ns, pt.AvgHops, pt.TailNs)
				pkts := netShape.Nodes() * (netPackets + netWarmup)
				b.cur.pkts += float64(pkts)
				c.Points = append(c.Points, pt)
				if !(pt.AvgNs > 0 && pt.AvgHops > 0) {
					return fmt.Errorf("%s load %.2f: empty point %+v", pol.Name(), load, pt)
				}
				if got := h.Telemetry().Ctr[telemetry.CtrDelivered] - del0; b.traced && got != int64(pkts) {
					return fmt.Errorf("%s load %.2f: telemetry delivered %d of %d packets", pol.Name(), load, got, pkts)
				}
				return nil
			})
		}
		res.Curves = append(res.Curves, c)
		if b.traced {
			b.cur.tel.Merge(h.Telemetry())
		}
	}
	b.report("netsweep 8x8x8 uniform", "\n"+res.Render())
}

func mdReplay(b *bench, seed int64) {
	for _, n := range replaySizes {
		for _, mode := range replayModes {
			var sys *md.System
			var r *traffic.Replayer
			b.setup("setup.water_s", func() { sys = md.NewWater(n, 300, sim.NewRand(seedOf(replayBaseSeed, seed))) })
			b.setup("setup.harness_s", func() { r = traffic.NewReplayer(md8, sys.Box, mode) })
			var before serdes.Stats
			for i := 0; i < replayWarm+replayMeasure; i++ {
				if i == replayWarm {
					before = r.Snapshot()
				}
				b.op("op.replay", func(d *digest) error {
					pre := r.Stats().Packets
					b.span("traffic.replay_step_s", func() { r.ReplayStep(sys) })
					b.span("md.step_s", sys.Step)
					st := r.Stats()
					b.cur.pkts += float64(st.Packets - pre)
					b.cur.atomSteps += float64(n)
					d.ints(int64(st.Packets), int64(st.WireBits), int64(st.BaselineBits), int64(st.PcacheHits), int64(st.PcacheMisses))
					d.floats(sys.Potential)
					if !r.InSync() {
						return fmt.Errorf("%d atoms %s step %d: particle caches out of sync", n, mode.EnabledString(), i)
					}
					return nil
				})
			}
			st := traffic.Delta(r.Stats(), before)
			b.cur.wire.add(st)
			name := fmt.Sprintf("fig9a %d atoms %s", n, mode.EnabledString())
			if mode.Pcache {
				cs := r.CacheStats()
				b.cur.hits += float64(cs.Hits)
				b.cur.lookups += float64(cs.Hits + cs.Misses)
				b.report(name, fmt.Sprintf("reduction %.1f%% hit rate %.1f%% (paper band inz+pcache 45-62%%)", 100*st.Reduction(), 100*cs.HitRate()))
			} else {
				b.report(name, fmt.Sprintf("reduction %.1f%% (paper band inz 32-40%%)", 100*st.Reduction()))
			}
		}
	}
}

func mdTimestep(b *bench, seed int64) {
	var stepNs [2]float64
	for ci, mode := range stepModes {
		var m *machine.Machine
		var sys *md.System
		var e *machine.Engine
		b.setup("setup.machine_s", func() {
			cfg := machine.DefaultConfig(md8)
			cfg.Compress = mode
			cfg.Seed = seedOf(stepMachSeed, seed)
			m = machine.New(cfg)
			if b.traced {
				m.EnableTelemetry()
			}
		})
		b.setup("setup.water_s", func() { sys = md.NewWater(stepAtoms, 300, sim.NewRand(seedOf(stepBaseSeed, seed))) })
		b.setup("setup.machine_s", func() { e = machine.NewEngine(m, sys, machine.DefaultTimestepConfig()) })
		k := m.ShardKernel(0)
		for i := 0; i < stepSteps; i++ {
			b.op("machine.engine_step_s", func(d *digest) error {
				ev0, pk0 := k.EventsFired(), m.TotalWireStats().Packets
				res := e.RunStep()
				b.cur.events += float64(k.EventsFired() - ev0)
				b.cur.pkts += float64(m.TotalWireStats().Packets - pk0)
				b.cur.atomSteps += float64(stepAtoms)
				b.cur.parkedPos += float64(res.ParkedPositions)
				b.cur.parkedFrc += float64(res.ParkedForces)
				d.ints(int64(res.Duration), res.ParkedPositions, res.ParkedForces)
				d.floats(res.PPIMBusyMax, sys.Potential)
				stepNs[ci] = res.Duration.Nanoseconds()
				if res.Duration <= 0 {
					return fmt.Errorf("%s step %d: empty timestep", mode.EnabledString(), i)
				}
				return m.CheckChannelSync()
			})
		}
		b.cur.wire.add(m.TotalWireStats())
		if c := m.Telemetry(); c != nil {
			b.cur.tel.Merge(c.Merged())
		}
	}
	b.report("fig12 32751 atoms", fmt.Sprintf("step off %.0f ns (paper ~2000 ns), on %.0f ns (paper ~900 ns), off/on %.2fx (fig9b band 1.18-1.62x)",
		stepNs[0], stepNs[1], stepNs[0]/stepNs[1]))
}

func mdReplayPairs(seed int64) (pairs, pairSteps float64) {
	for _, n := range replaySizes {
		p := float64(md.NewWater(n, 300, sim.NewRand(seedOf(replayBaseSeed, seed))).PairCount())
		pairs += p * float64(len(replayModes))
		pairSteps += p * float64(len(replayModes)*(replayWarm+replayMeasure))
	}
	return pairs, pairSteps
}

func mdTimestepPairs(seed int64) (pairs, pairSteps float64) {
	p := float64(md.NewWater(stepAtoms, 300, sim.NewRand(seedOf(stepBaseSeed, seed))).PairCount())
	return p * float64(len(stepModes)), p * float64(len(stepModes)*stepSteps)
}
