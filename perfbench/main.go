// Command perfbench is the host-time benchmark of the anton3 simulator.
//
// It times the simulator's public entry points from outside, in one
// process on one goroutine at one kernel shard, with one closed-loop
// client: each call starts when the previous one returns. A workload is a
// fixed list of cells (see workloads.go) repeated as passes until the
// time budget is spent; every operation is checked, and the simulated
// results must match the digests recorded at the default seed.
//
// Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload md-replay --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare A.json B.json
//
// --trace 0 prints the end-to-end metrics; --trace 1 first repeats the
// plain measurement for half the budget, then measures the other half
// with the CPU profile, spans, harness telemetry and MemStats deltas on,
// and prints the per-layer metrics. The last line of standard output is
// the result object; the full record (host fingerprint, reference values,
// per-operation digests, spans, profile) goes under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	_ "embed"
)

// defaultSeed is the workload seed whose simulated results are pinned in
// digests.json and coincide with the CLI's cells.
const defaultSeed = 1

const outDir = ".bench_build/perfbench"

//go:embed digests.json
var digestsJSON []byte

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	wlName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = per-layer (traced) run, 0 = end-to-end run")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *wlName {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", workloadNames())
		os.Exit(2)
	}
	if err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result set written next to the profile and spans.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Traced      bool              `json:"traced"`
	Host        fingerprint       `json:"host"`
	Passes      int               `json:"passes"`
	Metrics     map[string]metric `json:"metrics"`
	References  map[string]string `json:"references"`
	Unvalidated string            `json:"unvalidated"`
	Digests     []string          `json:"digests"`
	Errors      []string          `json:"errors,omitempty"`
}

func run(wl *workload, seed int64, budget time.Duration, traced bool) error {
	var pinned map[string][]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	host := probeHost()
	b, err := newBench()
	if err != nil {
		return err
	}
	if seed == defaultSeed {
		b.expect = pinned[wl.name]
	}
	metrics := map[string]metric{}
	prefix := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", wl.name, seed, btoi(traced)))

	var passes []*passStats
	if !traced {
		setups := b.measureSetup(wl, seed, budget/10)
		passes = b.measure(wl, seed, budget-budget/10)
		setups = append(setups, passes...)
		wall := passSeconds(passes, opsOf, true)
		metrics["wall_s"] = metric{wall, "s"}
		// Set-up-only passes carry no reference samples; set-up times
		// take the yardstick of the run's full passes.
		scale := median(each(passes, (*passStats).scale))
		rawSetup := passSeconds(setups, setupsOf, false)
		metrics["setup_s"] = metric{rawSetup * scale, "s"}
		metrics["pkts_per_s"] = metric{passes[0].pkts / wall, "1/s"}
		// The reference kernel's table is resident too; it is the
		// benchmark's, not the simulator's.
		metrics["max_rss_mb"] = metric{maxRSSMiB() - refTable*8/(1<<20), "MiB"}
		// The unscaled host times and the yardstick, for the record.
		metrics["raw_wall_s"] = metric{passSeconds(passes, opsOf, false), "s"}
		metrics["raw_setup_s"] = metric{rawSetup, "s"}
		metrics["ref_ms"] = metric{float64(refNominal) / scale / 1e6, "ms"}
		// atom_steps_per_s is recorded for the MD workloads only: the
		// network workloads have no atoms, and every end-to-end metric
		// printed must be defined on every workload.
		if passes[0].atomSteps > 0 {
			metrics["atom_steps_per_s"] = metric{passes[0].atomSteps / wall, "1/s"}
		}
	} else {
		plain := passSeconds(b.measure(wl, seed, budget/2), opsOf, true)
		var pairs, pairSteps float64
		if wl.pairs != nil {
			pairs, pairSteps = wl.pairs(seed)
		}
		prof, err := os.Create(prefix + ".cpu.pprof")
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
		b.traced = true
		passes = b.measure(wl, seed, budget/2)
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
		shares, err := cpuShares(prefix + ".cpu.pprof")
		if err != nil {
			return err
		}
		for k, v := range shares {
			metrics[k] = metric{v, "fraction"}
		}
		layerMetrics(metrics, passes, plain, pairs, pairSteps)
		if err := writeJSON(prefix+".spans.json", b.spans); err != nil {
			return err
		}
	}

	declared, err := declaredMetrics(traced)
	if err != nil {
		return err
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, name := range declared {
		m, ok := metrics[name]
		if !ok {
			return fmt.Errorf("metric %s not measured", name)
		}
		res.Metrics[name] = m
	}
	rec := record{
		Workload: wl.name, Seed: seed, Traced: traced, Host: host, Passes: len(passes),
		Metrics: metrics, References: b.reports, Digests: b.first, Errors: b.errs,
		Unvalidated: "Reference values are the paper's figures as the repo records them; " +
			"the network model is otherwise unvalidated against hardware.",
	}
	if err := writeJSON(prefix+".json", rec); err != nil {
		return err
	}
	b.printReport(os.Stderr, host, rec)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// layerMetrics derives the per-layer metrics of a traced run from its
// passes; plain is the untraced wall_s of the same run.
func layerMetrics(m map[string]metric, passes []*passStats, plain, pairs, pairSteps float64) {
	spanS := func(name string) float64 {
		return median(each(passes, func(p *passStats) float64 { return float64(p.spanNs[name]) * p.scale() / 1e9 }))
	}
	for _, name := range spanNames {
		m[name] = metric{spanS(name), "s"}
	}
	last := passes[len(passes)-1]
	m["trace.overhead_frac"] = metric{passSeconds(passes, opsOf, true)/plain - 1, "fraction"}
	m["sim.events"] = metric{last.events, "count"}
	m["sim.ns_per_event"] = metric{ratio(spanS("machine.engine_step_s")*1e9, last.events), "ns"}
	for _, c := range machineCounters {
		m["machine."+c.name] = metric{float64(last.tel.Ctr[c.id]) / c.div, c.unit}
	}
	m["machine.parked_positions"] = metric{last.parkedPos, "count"}
	m["machine.parked_forces"] = metric{last.parkedFrc, "count"}
	m["md.pairs"] = metric{pairs, "count"}
	m["md.ns_per_pair"] = metric{ratio(spanS("md.step_s")*1e9, pairSteps), "ns"}
	m["serdes.reduction"] = metric{last.wire.reduction(), "fraction"}
	m["pcache.hit_rate"] = metric{ratio(last.hits, last.lookups), "fraction"}
	m["runtime.alloc_mb"] = metric{median(each(passes, func(p *passStats) float64 { return float64(p.allocBytes) / (1 << 20) })), "MiB"}
	m["runtime.gc_cycles"] = metric{median(each(passes, func(p *passStats) float64 { return float64(p.gcCycles) })), "count"}
}

// declaredMetrics lists the metrics BENCHMARK.json declares for a run:
// end-to-end for a plain run, per-layer for a traced one.
func declaredMetrics(traced bool) ([]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

// passSeconds is the median over passes of one pass's timed calls
// (operations or set-up calls, as sel picks), in seconds. scaled rescales
// each pass to the reference speed (see calib.go).
func passSeconds(passes []*passStats, sel func(*passStats) []int64, scaled bool) float64 {
	return median(each(passes, func(p *passStats) float64 {
		var sum int64
		for _, ns := range sel(p) {
			sum += ns
		}
		if scaled {
			return float64(sum) * p.scale() / 1e9
		}
		return float64(sum) / 1e9
	}))
}

func opsOf(p *passStats) []int64    { return p.opNs }
func setupsOf(p *passStats) []int64 { return p.setupNs }

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func each(passes []*passStats, f func(*passStats) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
