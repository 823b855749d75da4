package experiments

import (
	"fmt"
	"strings"
	"testing"

	"anton3/internal/runner"
	"anton3/internal/sim"
	"anton3/internal/stats"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// sz picks the full-size or -short variant of a test parameter.
var sz = testutil.Size

func TestFig5ShapeMatchesPaper(t *testing.T) {
	r := Fig5(sim.NewRand(Fig5Seed), sz(3, 2))
	if len(r.Points) != 9 {
		t.Fatalf("expected hops 0..8, got %d points", len(r.Points))
	}
	// Slope within 10% of 34.2 ns/hop; linear (R2 high).
	if !stats.Within(r.Fit.Slope, 34.2, 0.10) {
		t.Errorf("slope = %.1f, want 34.2 +/- 10%%", r.Fit.Slope)
	}
	if r.Fit.R2 < 0.98 {
		t.Errorf("latency curve not linear: R2 = %.3f", r.Fit.R2)
	}
	// 0-hop distinctly lower than the h=1 average.
	if r.Points[0].AvgNs >= r.Points[1].AvgNs {
		t.Error("0-hop latency should be lowest")
	}
	if !strings.Contains(r.Render(), "paper: y = 55.9") {
		t.Error("render missing paper reference")
	}
}

func TestFig6BreakdownConsistent(t *testing.T) {
	r := Fig6()
	if !stats.Within(r.TotalNs, 55, 0.12) {
		t.Errorf("breakdown total = %.1f ns, want ~55", r.TotalNs)
	}
	// The sum of the stages must match what the simulator measures on the
	// same path.
	if !stats.Within(r.MeasuredNs, r.TotalNs, 0.05) {
		t.Errorf("measured %.1f ns vs breakdown %.1f ns", r.MeasuredNs, r.TotalNs)
	}
	if len(r.Stages) < 10 {
		t.Error("breakdown too coarse")
	}
}

func TestFig9aBands(t *testing.T) {
	pts := Fig9a([]int{sz(8000, 6000)}, 2, 2)
	p := pts[0]
	if p.INZOnly < 0.28 || p.INZOnly > 0.44 {
		t.Errorf("INZ reduction %.2f outside band", p.INZOnly)
	}
	if p.INZPlusPcache <= p.INZOnly {
		t.Errorf("pcache added nothing: %.2f vs %.2f", p.INZPlusPcache, p.INZOnly)
	}
	if p.INZPlusPcache < 0.40 || p.INZPlusPcache > 0.68 {
		t.Errorf("combined reduction %.2f outside plausible band", p.INZPlusPcache)
	}
	if !strings.Contains(RenderFig9a(pts), "inz+pcache") {
		t.Error("render broken")
	}
}

func TestFig9bSpeedupDirection(t *testing.T) {
	pts := Fig9b([]int{sz(8000, 6000)}, 2, 1)
	if pts[0].Speedup < 1.1 {
		t.Errorf("speedup %.2f, want > 1.1", pts[0].Speedup)
	}
	if !strings.Contains(RenderFig9b(pts), "speedup") {
		t.Error("render broken")
	}
}

func TestFig11MatchesPaper(t *testing.T) {
	r := Fig11()
	if !stats.Within(r.Fit.Slope, 51.8, 0.10) {
		t.Errorf("fence slope = %.1f, want 51.8 +/- 10%%", r.Fit.Slope)
	}
	if !stats.Within(r.Fit.Intercept, 91.2, 0.10) {
		t.Errorf("fence intercept = %.1f, want 91.2 +/- 10%%", r.Fit.Intercept)
	}
	if !stats.Within(r.Points[0].Ns, 51.5, 0.10) {
		t.Errorf("0-hop barrier = %.1f ns, want 51.5", r.Points[0].Ns)
	}
	global := r.Points[len(r.Points)-1]
	if !stats.Within(global.Ns, 504, 0.10) {
		t.Errorf("global barrier = %.1f ns, want ~504", global.Ns)
	}
}

func TestFig12SmallSystem(t *testing.T) {
	// Full 32751-atom runs live in the benchmarks; keep the test fast.
	r := Fig12(sz(6000, 4000), 2, 1)
	if r.StepOffNs <= r.StepOnNs {
		t.Errorf("compression did not speed up the step: %.0f vs %.0f", r.StepOffNs, r.StepOnNs)
	}
	out := r.Render()
	for _, want := range []string{"compression disabled", "compression enabled", "ppim"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTablesRender(t *testing.T) {
	out := Tables()
	for _, want := range []string{"Anton 3", "5914", "Core Routers", "Particle Cache", "14.1%", "1.8%"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q:\n%s", want, out)
		}
	}
}

func TestAblationPredictorOrderMonotone(t *testing.T) {
	// The quadratic predictor needs a full 3-step history before it can
	// beat linear, so short mode shrinks atoms but keeps the warmup.
	rows := AblationPredictorOrder(sz(4000, 3000), 3, 2)
	if len(rows) != 3 {
		t.Fatal("want 3 rows")
	}
	// Quadratic >= linear >= constant in achieved reduction.
	if rows[2].Value < rows[1].Value || rows[1].Value < rows[0].Value {
		t.Fatalf("predictor order not monotone: %+v", rows)
	}
}

func TestAblationPcacheSizeMonotone(t *testing.T) {
	rows := AblationPcacheSize(sz(8000, 5000), 2, 2, []int{64, 1024})
	if rows[1].Value <= rows[0].Value {
		t.Fatalf("bigger cache should reduce more: %+v", rows)
	}
}

func TestAblationINZBeatsTruncation(t *testing.T) {
	rows := AblationINZInterleave(3000)
	raw, trunc, inzb := rows[0].Value, rows[1].Value, rows[2].Value
	if !(inzb < trunc && trunc < raw) {
		t.Fatalf("expected inz < truncation < raw: %+v", rows)
	}
}

func TestAblationFenceBeatsPairwise(t *testing.T) {
	rows := AblationFenceVsPairwise(topo.Shape{X: 4, Y: 4, Z: 8})
	// At 128 nodes the fence wins outright on wire traffic (O(N) vs
	// O(N^2) thanks to in-network merging) and stays competitive or
	// better on latency.
	if rows[2].Value >= rows[3].Value {
		t.Fatalf("fence should use far less bandwidth: %+v", rows)
	}
	// Latency stays the same order (the wavefront is hop-serial while a
	// single pairwise write is pipelined; with all 1152 GCs per node
	// participating, pairwise latency would blow up while the fence's
	// would not change).
	if rows[0].Value > rows[1].Value*1.8 {
		t.Fatalf("fence latency uncompetitive: %+v", rows)
	}
}

func TestAblationDimOrdersHelps(t *testing.T) {
	rows := AblationDimOrders(40)
	// Randomized routing must not be slower than fixed XYZ under load.
	if rows[1].Value > rows[0].Value*1.02 {
		t.Fatalf("randomized orders slower than XYZ: %+v", rows)
	}
}

func TestJobsRegistryShardsAndNetsweep(t *testing.T) {
	p := DefaultParams()
	jobs := Jobs(p)
	names := map[string]bool{}
	for _, j := range jobs {
		names[j.Name] = true
	}
	// Fig5/Fig11 hop sweeps are sharded per hop count plus a reducer.
	for h := 0; h <= Shape128.Diameter(); h++ {
		for _, fig := range []string{"fig5", "fig11"} {
			if !names[fmt.Sprintf("%s/h%d", fig, h)] {
				t.Fatalf("missing shard %s/h%d", fig, h)
			}
		}
	}
	if !names["fig5"] || !names["fig11"] {
		t.Fatal("missing figure reducers")
	}
	// Netsweep covers every shape x pattern, including a 512-node shape.
	if !names["netsweep/8x8x8/tornado"] || !names["netsweep/4x4x8/uniform"] {
		t.Fatalf("missing netsweep jobs: %v", names)
	}

	sel := SelectJobs(jobs, "fig5")
	if len(sel) != Shape128.Diameter()+2 {
		t.Fatalf("SelectJobs(fig5) = %d jobs, want shards + reducer", len(sel))
	}
	if sel[len(sel)-1].Name != "fig5" {
		t.Fatal("reducer must follow its shards")
	}
	sel = SelectJobs(jobs, "netsweep")
	if len(sel) != len(p.Shapes)*6 {
		t.Fatalf("SelectJobs(netsweep) = %d jobs, want %d", len(sel), len(p.Shapes)*6)
	}
	if SelectJobs(jobs, "no-such-job") != nil {
		t.Fatal("unknown selector should select nothing")
	}
}

// TestFig5ShardedMatchesDirect pins the sharding refactor: running the
// fig5 sub-jobs + reducer through the runner must reproduce the direct
// Fig5 call digit for digit, at any worker count.
func TestFig5ShardedMatchesDirect(t *testing.T) {
	p := DefaultParams()
	p.Fig5Pairs = sz(2, 1)
	want := Fig5(sim.NewRand(Fig5Seed), p.Fig5Pairs).Render()
	for _, workers := range []int{1, 4} {
		rep, err := runner.Run(SelectJobs(Jobs(p), "fig5"), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.RenderAll(); got != want+"\n" {
			t.Fatalf("workers=%d: sharded fig5 diverged:\n--- sharded ---\n%s--- direct ---\n%s", workers, got, want)
		}
	}
}

// TestNetsweepSmoke keeps the synthetic-load harness green in the CI fast
// lane: a tiny full-grid sweep through the runner, byte-identical across
// worker counts.
func TestNetsweepSmoke(t *testing.T) {
	p := DefaultParams()
	p.Shapes = []topo.Shape{{X: 2, Y: 2, Z: 2}}
	p.Loads = []float64{0.5, 2}
	p.Packets, p.Warmup = sz(16, 8), 4
	jobs := SelectJobs(Jobs(p), "netsweep")
	if len(jobs) != 6 {
		t.Fatalf("want 6 pattern jobs, got %d", len(jobs))
	}
	seq, err := runner.Run(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.RenderAll() != par.RenderAll() {
		t.Fatal("netsweep output depends on worker count")
	}
	out := seq.RenderAll()
	for _, want := range []string{"uniform", "bitcomp", "transpose", "tornado", "hotspot", "neighbor", "random", "xyz", "adaptive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("netsweep output missing %q:\n%s", want, out)
		}
	}
}
