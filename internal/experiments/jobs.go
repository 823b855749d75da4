package experiments

import (
	"fmt"
	"strings"

	"anton3/internal/fault"
	"anton3/internal/flow"
	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/runner"
	"anton3/internal/sim"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// Fig5Seed is the pair-sampling seed of the paper runs of Figure 5.
const Fig5Seed = 99

// Params sizes every experiment job. The zero value is not useful; start
// from DefaultParams (the sizes cmd/anton3 has always used) and override.
type Params struct {
	Fig5Pairs    int   // sampled GC pairs per hop count
	Fig9aSizes   []int // atom counts for the traffic-reduction sweep
	Fig9aWarm    int   // warmup steps excluded from the fig9a window
	Fig9aMeasure int   // measured steps in the fig9a window
	Fig9bSizes   []int // atom counts for the speedup sweep
	Fig9bSteps   int   // timesteps per fig9b sample
	Fig12Atoms   int   // the paper's activity-plot system size
	Fig12Steps   int   // timesteps for fig12 (last one is traced)

	AblPredictorAtoms int   // predictor-order ablation system size
	AblPcacheAtoms    int   // pcache size-sweep system size
	AblPcacheSizes    []int // pcache capacities swept
	AblINZAtoms       int   // INZ interleave ablation system size
	AblDimWrites      int   // writes per node in the dimension-order ablation

	// Shapes, Loads, Packets and Warmup size the sweep grids (netsweep,
	// saturate, faultsweep): one cell per shape x pattern, each measuring
	// every offered load with Packets measured and Warmup warmup packets
	// per node (per node at unit load in the closed-loop grids, which
	// scale them with the load so the offered horizon stays
	// load-independent).
	Shapes  []topo.Shape
	Loads   []float64
	Packets int
	Warmup  int
	// QueueFlits and InjDepth configure the closed-loop grids' per-VC
	// ingress queue depth and per-source injection window; 0 takes the
	// flow package defaults (bandwidth-delay-product queues, 8-slot
	// windows).
	QueueFlits int
	InjDepth   int
	// Shards shards each sweep-cell and timestep-engine machine (fig9b,
	// fig12, mdsweep) across that many kernels (conservative-lookahead
	// parallel simulation; see machine.Config.Shards). Output is
	// byte-identical at every value; 0 or 1 is the sequential machine.
	Shards int

	// Saturate gates the closed-loop saturation grid (anton3 saturate):
	// the jobs are appended to the registry only when set, so the `all`
	// output stream stays byte-identical to older trees.
	Saturate bool

	// MDSweep gates the closed-loop MD backpressure grid (anton3 mdsweep):
	// like Saturate, the jobs only join the registry when set, so the
	// `all` output stream stays byte-identical to older trees.
	MDSweep bool
	// MDAtoms and MDSteps size each mdsweep cell.
	MDAtoms int
	MDSteps int

	// FaultSweep gates the link-fault knee-shift grid (anton3 faultsweep):
	// like Saturate, the jobs only join the registry when set.
	FaultSweep bool
	// FaultSeed seeds the drawn fault-severity grid (fault.SeverityGrid):
	// which links each severity degrades or kills is a deterministic
	// function of (shape, FaultSeed).
	FaultSeed uint64
	// FaultPlan, when non-empty, replaces the drawn grid with two rows —
	// the healthy baseline and this custom plan (fault.Parse syntax). The
	// CLI validates it against every selected shape before jobs build.
	FaultPlan string

	// Cache, when non-nil, memoizes the grid cells (netsweep, saturate,
	// mdsweep) at two levels: whole cells short-circuit through
	// runner.Job.CacheKey, and the saturate cells additionally memoize
	// every closed-loop point — sweep loads and knee-search probes —
	// inside flow. Results are a pure function of (config, seed), so
	// caching changes wall time and the -json cache counters only, never
	// a byte of output. nil (the default) runs everything.
	Cache *resultstore.Store

	// Metrics arms the deterministic telemetry layer on the sweep cells
	// (netsweep, saturate, faultsweep): curves carry counter/histogram
	// summaries and renders append "telemetry" lines. Metrics-on cells
	// cache under "+tel" kinds, so they never share entries with plain
	// runs of the same configuration.
	Metrics bool
	// Trace, when non-nil, arms packet-lifecycle tracing on the same
	// cells; each cell drains its tracks into the sink under its job
	// name. Traced cells never cache — a hit would skip the simulated
	// work whose lifecycle the trace records.
	Trace *telemetry.TraceSink
}

// DefaultParams returns the paper-scale configuration.
func DefaultParams() Params {
	return Params{
		Fig5Pairs:    6,
		Fig9aSizes:   []int{8000, 16000, 32751, 65000, 131000},
		Fig9aWarm:    3,
		Fig9aMeasure: 4,
		Fig9bSizes:   []int{8000, 16000, 32751, 65000},
		Fig9bSteps:   3,
		Fig12Atoms:   32751,
		Fig12Steps:   3,

		AblPredictorAtoms: 8000,
		AblPcacheAtoms:    32751,
		AblPcacheSizes:    []int{256, 512, 1024, 2048, 4096},
		AblINZAtoms:       8000,
		AblDimWrites:      60,

		// The paper's 128-node measurement machine plus the 512-node
		// production scale; 8x8x16 (1024 nodes) is a -shapes flag away.
		Shapes:  []topo.Shape{{X: 4, Y: 4, Z: 8}, {X: 8, Y: 8, Z: 8}},
		Loads:   []float64{0.5, 1, 2, 3, 4},
		Packets: 96,
		Warmup:  32,

		MDAtoms: 8000,
		MDSteps: 2,

		FaultSeed: 1,
	}
}

// policyNames flattens a policy list into the cache-key config: the
// policy set is part of what a cell's output depends on.
func policyNames(pols []route.Policy) []string {
	names := make([]string, len(pols))
	for i, p := range pols {
		names[i] = p.Name()
	}
	return names
}

// cellKeyCfg is the canonical cache-key config of one sweep cell. Shard
// and worker counts are deliberately absent: cell output is
// shard-invariant, so a result computed at any -shards/-jobs serves every
// other. QueueFlits/InjDepth hold the resolved depths, not the 0 the
// flags pass for "default", so a default-depth run and an explicit -vcq
// 64 run share entries; Severities names a faultsweep cell's fault grid.
type cellKeyCfg struct {
	Shape      string
	Pattern    string
	Policies   []string
	Loads      []float64
	Packets    int
	Warmup     int
	QueueFlits int
	InjDepth   int
	Severities []string
}

// cellJob builds the runner job of one sweep cell: the name
// "<kind>/<shape>/<pattern>", the cell seed, the cell cache key and the
// run, all derived from the cell. Cells are auto-shardable: when the pool
// has idle workers and -autoshard is on, a cell's machine runs across the
// spare cores with byte-identical output (pinned by the shard-invariance
// tier-1 tests). cost is the dispatch hint per 16 nodes.
func cellJob(p Params, kind string, c synth.Cell, sevs []fault.Severity, cost float64) runner.Job {
	name := fmt.Sprintf("%s/%s/%s", kind, c.Shape, c.Pattern.Name)
	key := cellKeyCfg{
		Shape:      c.Shape.String(),
		Pattern:    c.Pattern.Name,
		Policies:   policyNames(c.Policies),
		Loads:      c.Loads,
		Packets:    c.Packets,
		Warmup:     c.Warmup,
		QueueFlits: c.QueueFlits,
		InjDepth:   c.InjDepth,
	}
	for _, sev := range sevs {
		key.Severities = append(key.Severities, sev.Name+"="+sev.Plan.Canon())
	}
	// Observability gates: metrics-on cells cache under a "+tel" kind
	// (payload and stdout then carry telemetry), and traced cells cache
	// nothing — a cell hit would skip, and point hits would leave holes
	// in, the simulation whose lifecycle the trace records.
	keyKind, cache, cacheKey := "cell/"+kind, p.Cache, resultstore.Key{}
	if p.Metrics {
		keyKind += "+tel"
	}
	if p.Trace == nil {
		cacheKey = resultstore.KeyFor(keyKind, c.Seed, key)
	} else {
		cache = nil
	}
	run := func(shards int) (runner.Output, error) {
		opts := synth.Opts{Metrics: p.Metrics, Cache: cache}
		if p.Trace != nil {
			opts.Trace = trace.NewRecorder()
		}
		var r interface{ Render() string }
		switch kind {
		case "netsweep":
			r = synth.Sweep(c, shards, opts)
		case "saturate":
			r = flow.Sweep(c, shards, opts)
		default:
			r = flow.FaultSweep(c, shards, opts, sevs)
		}
		if opts.Trace != nil {
			p.Trace.Add(name, opts.Trace)
		}
		return runner.Output{Text: r.Render(), Data: r}, nil
	}
	return shardable(p, runner.Job{
		Name:     name,
		Seed:     c.Seed,
		Cost:     cost * float64(c.Shape.Nodes()) / 16,
		CacheKey: cacheKey,
	}, run)
}

// shardable completes a job whose machine can run sharded: Run uses
// p.Shards, and when that leaves the job sequential, ShardRun lets the
// runner grant it spare cores as kernel shards at dispatch (byte-identical
// output at any shard count).
func shardable(p Params, job runner.Job, run func(shards int) (runner.Output, error)) runner.Job {
	job.Run = func(*sim.Rand) (runner.Output, error) {
		return run(p.Shards)
	}
	if p.Shards <= 1 {
		job.ShardRun = func(_ *sim.Rand, shards int) (runner.Output, error) {
			return run(shards)
		}
	}
	return job
}

// gridJobs registers one sweep grid: one cell job per shape x pattern,
// each sweeping every policy across the offered loads, with cell seeds
// depending on position only (seedBase + 100*shape + pattern) so the grid
// decomposes freely across workers.
//
//   - netsweep: the open loop (VC queues off, unbounded windows), the
//     three oblivious/adaptive policies.
//   - saturate: the closed loop with the resolved depths, all four
//     policies (plus credit-echo), bisecting for each saturation knee.
//     With a result store, cells memoize at two grains: the whole cell
//     through its CacheKey, and — on a cell miss — every closed-loop
//     point inside flow, so knee searches never re-simulate a probe any
//     invocation has seen.
//   - faultsweep: saturate's cell under every severity of the fault grid,
//     reported as knee shifts against the healthy baseline. Severity
//     plans are canonicalized into the cache key, so a different
//     -faultseed or -faults plan never collides with a cached cell;
//     healthy probe points share entries with saturate's.
func gridJobs(p Params, kind string, seedBase uint64, cost float64) []runner.Job {
	pols, qf, injd := route.Policies(), 0, 0
	if kind != "netsweep" {
		pols = route.SaturatePolicies()
		qf, injd = flow.Depths(p.QueueFlits, p.InjDepth)
	}
	var jobs []runner.Job
	for si, shape := range p.Shapes {
		var sevs []fault.Severity
		if kind == "faultsweep" {
			sevs = faultSevs(p, shape)
		}
		for pi, pat := range synth.Patterns() {
			c := synth.Cell{
				Shape:      shape,
				Pattern:    pat,
				Policies:   pols,
				Loads:      p.Loads,
				Packets:    p.Packets,
				Warmup:     p.Warmup,
				Seed:       seedBase + uint64(100*si+pi),
				QueueFlits: qf,
				InjDepth:   injd,
			}
			jobs = append(jobs, cellJob(p, kind, c, sevs, cost))
		}
	}
	return jobs
}

// fig9bJob builds the compression-speedup job. The timestep engine runs on
// the sharded executive with byte-identical output, so the job is
// auto-shardable exactly like a netsweep cell: spare cores at dispatch
// become kernel shards.
func fig9bJob(p Params) runner.Job {
	run := func(shards int) (runner.Output, error) {
		pts := Fig9b(p.Fig9bSizes, p.Fig9bSteps, shards)
		return runner.Output{Text: RenderFig9b(pts), Data: pts}, nil
	}
	return shardable(p, runner.Job{Name: "fig9b", Seed: 4, Cost: 20}, run)
}

// fig12Job builds the activity-plot job, auto-shardable like fig9b.
func fig12Job(p Params) runner.Job {
	run := func(shards int) (runner.Output, error) {
		r := Fig12(p.Fig12Atoms, p.Fig12Steps, shards)
		return runner.Output{Text: r.Render(), Data: r}, nil
	}
	return shardable(p, runner.Job{Name: "fig12", Seed: 6, Cost: 15}, run)
}

// mdsweepJobs registers the closed-loop MD backpressure grid: one job per
// routing policy (the saturate quartet), each sweeping the per-VC queue
// depths over real MD timesteps. Every cell pre-draws its randomness from
// the water seed alone, so the grid decomposes freely across workers and
// shards with byte-identical output, and cells auto-shard like netsweep
// cells.
func mdsweepJobs(p Params) []runner.Job {
	var jobs []runner.Job
	for pi, pol := range route.SaturatePolicies() {
		pol := pol
		run := func(shards int) (runner.Output, error) {
			pts := MDSweepPolicy(pol, p.MDAtoms, p.MDSteps, shards)
			return runner.Output{Text: RenderMDSweep(p.MDAtoms, p.MDSteps, pts), Data: pts}, nil
		}
		jobs = append(jobs, shardable(p, runner.Job{
			Name: fmt.Sprintf("mdsweep/%s", pol.Name()),
			Seed: uint64(9500 + pi),
			// Each cell runs len(MDQueueDepths) full timestep pipelines
			// at the fig9b 8000-atom scale.
			Cost: 10,
			CacheKey: resultstore.KeyFor("cell/mdsweep", uint64(9500+pi), struct {
				Policy string
				Atoms  int
				Steps  int
				Depths []int
			}{pol.Name(), p.MDAtoms, p.MDSteps, MDQueueDepths}),
		}, run))
	}
	return jobs
}

// faultSevs resolves the fault-severity grid one faultsweep cell runs: the
// custom [healthy, plan] pair when Params.FaultPlan is set (the CLI has
// already validated it against every selected shape — a parse failure here
// is a programming error), the drawn grid otherwise.
func faultSevs(p Params, shape topo.Shape) []fault.Severity {
	if p.FaultPlan == "" {
		return fault.SeverityGrid(shape, p.FaultSeed)
	}
	plan, err := fault.Parse(p.FaultPlan)
	if err != nil {
		panic("experiments: unvalidated fault plan: " + err.Error())
	}
	return []fault.Severity{{Name: "healthy"}, {Name: "custom", Plan: *plan}}
}

// Jobs returns every table, figure and ablation of the paper as runner
// jobs, in the order cmd/anton3 has always printed them, followed by the
// netsweep policy/pattern grid. Each job owns a private machine and
// kernel, so the set can run on any worker count with byte-identical
// output. Cost hints come from measured paper-scale runtimes and only
// shape dispatch order, never output.
func Jobs(p Params) []runner.Job {
	jobs := []runner.Job{
		{Name: "tables", Seed: 1, Cost: 0.1,
			Run: func(*sim.Rand) (runner.Output, error) {
				return runner.Output{Text: Tables()}, nil
			}},
		{Name: "fig5", Seed: Fig5Seed, Cost: 3.6,
			Run: func(rng *sim.Rand) (runner.Output, error) {
				r := Fig5(rng, p.Fig5Pairs)
				return runner.Output{Text: r.Render(), Data: r}, nil
			}},
		{Name: "fig6", Seed: 2, Cost: 0.1,
			Run: func(*sim.Rand) (runner.Output, error) {
				r := Fig6()
				return runner.Output{Text: r.Render(), Data: r}, nil
			}},
		{Name: "fig9a", Seed: 3, Cost: 30,
			Run: func(*sim.Rand) (runner.Output, error) {
				pts := Fig9a(p.Fig9aSizes, p.Fig9aWarm, p.Fig9aMeasure)
				return runner.Output{Text: RenderFig9a(pts), Data: pts}, nil
			}},
		fig9bJob(p),
		{Name: "fig11", Seed: 5, Cost: 1.1,
			Run: func(*sim.Rand) (runner.Output, error) {
				r := Fig11()
				return runner.Output{Text: r.Render(), Data: r}, nil
			}},
		fig12Job(p),
		{Name: "ablation-predictor-order", Seed: 7, Cost: 2,
			Run: func(*sim.Rand) (runner.Output, error) {
				rows := AblationPredictorOrder(p.AblPredictorAtoms, 3, 3)
				return runner.Output{
					Text: RenderAblation(fmt.Sprintf("Ablation: pcache predictor order (%d atoms)", p.AblPredictorAtoms), rows),
					Data: rows,
				}, nil
			}},
		{Name: "ablation-pcache-size", Seed: 8, Cost: 10,
			Run: func(*sim.Rand) (runner.Output, error) {
				rows := AblationPcacheSize(p.AblPcacheAtoms, 2, 2, p.AblPcacheSizes)
				return runner.Output{
					Text: RenderAblation(fmt.Sprintf("Ablation: pcache size sweep (%d atoms)", p.AblPcacheAtoms), rows),
					Data: rows,
				}, nil
			}},
		{Name: "ablation-inz-interleave", Seed: 9, Cost: 0.5,
			Run: func(*sim.Rand) (runner.Output, error) {
				rows := AblationINZInterleave(p.AblINZAtoms)
				return runner.Output{
					Text: RenderAblation(fmt.Sprintf("Ablation: INZ interleave vs truncation (%d atoms)", p.AblINZAtoms), rows),
					Data: rows,
				}, nil
			}},
		{Name: "ablation-fence-vs-pairwise", Seed: 10, Cost: 1,
			Run: func(*sim.Rand) (runner.Output, error) {
				rows := AblationFenceVsPairwise(topo.Shape{X: 4, Y: 4, Z: 8})
				return runner.Output{
					Text: RenderAblation("Ablation: fence vs pairwise barrier (128 nodes)", rows),
					Data: rows,
				}, nil
			}},
		{Name: "ablation-dim-orders", Seed: 11, Cost: 1.5,
			Run: func(*sim.Rand) (runner.Output, error) {
				rows := AblationDimOrders(p.AblDimWrites)
				return runner.Output{
					Text: RenderAblation("Ablation: routing policy under uniform-random load", rows),
					Data: rows,
				}, nil
			}},
	}
	// Cost hints: a saturate cell runs ~4 policies x (sweep + knee
	// probes) of load-scaled closed-loop points, roughly 5x a netsweep
	// cell; a faultsweep cell runs one saturate-style knee search per
	// severity.
	jobs = append(jobs, gridJobs(p, "netsweep", 7000, 0.1)...)
	if p.Saturate {
		jobs = append(jobs, gridJobs(p, "saturate", 9000, 0.5)...)
	}
	if p.MDSweep {
		jobs = append(jobs, mdsweepJobs(p)...)
	}
	if p.FaultSweep {
		jobs = append(jobs, gridJobs(p, "faultsweep", 9700, 2.5)...)
	}
	return jobs
}

// SelectJobs filters jobs by subcommand name: a job matches itself, a
// grid selector matches every cell of its grid (name-prefix
// "<selector>/", e.g. netsweep/4x4x8/uniform), and "ablations" matches
// every ablation-* job. It returns nil when nothing matches.
func SelectJobs(jobs []runner.Job, name string) []runner.Job {
	if name == "all" {
		return jobs
	}
	var out []runner.Job
	for _, j := range jobs {
		if j.Name == name ||
			strings.HasPrefix(j.Name, name+"/") ||
			(name == "ablations" && strings.HasPrefix(j.Name, "ablation-")) {
			out = append(out, j)
		}
	}
	return out
}
