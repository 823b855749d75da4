// Package runner executes independent experiments on a worker pool.
//
// Every experiment in this repository is a pure function of its
// configuration and seed: it builds a private sim.Kernel, runs it, and
// returns rows. Kernels share no state, so independent experiments can run
// on separate goroutines — the runner exploits that to use every core while
// keeping output deterministic:
//
//   - jobs never depend on one another: every job is ready at once and
//     the pool dispatches them by Cost, most expensive first;
//   - each Job carries its own seed, from which the runner derives a fresh
//     sim.Rand; random streams never depend on which worker runs the job or
//     in what order jobs finish;
//   - results are collected by job index and rendered in submission order,
//     so the concatenated output is byte-identical to a sequential run.
//
// The aggregated Report records per-job wall times, the pool's wall time,
// and the speedup over the serial estimate, and serializes to JSON for CI
// artifacts (BENCH_runner.json).
package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"anton3/internal/resultstore"
	"anton3/internal/sim"
)

// Output is what a job's Run function produces: a rendered table/figure
// plus the typed rows behind it.
type Output struct {
	Text string // rendered table or figure, as printed by cmd/anton3
	Data any    // typed result rows, serialized into the JSON artifact
}

// Job is one self-contained experiment.
type Job struct {
	// Name identifies the job in reports and artifacts ("fig5", "tables").
	// Names must be unique within one Run.
	Name string
	// Seed derives the job's private RNG. Jobs with the same seed produce
	// identical streams regardless of worker or completion order.
	Seed uint64
	// Cost is a relative expected-runtime hint. The pool starts expensive
	// jobs first so the long pole overlaps the small jobs instead of
	// trailing them; it has no effect on output, only on wall time.
	Cost float64
	// Run executes the experiment with the job's seeded RNG.
	Run func(rng *sim.Rand) (Output, error)
	// CacheKey, when valid and the pool runs with Options.Cache, lets
	// the job short-circuit: a stored Output under the key is returned
	// without calling Run (or ShardRun), and a computed Output is stored
	// back on success. The key must capture the job's entire
	// configuration and seed (resultstore.KeyFor); the job must be a
	// pure function of them. A cached Data field round-trips through
	// JSON as generic values (maps/slices), not the original types.
	CacheKey resultstore.Key
	// ShardRun, when set alongside Run, lets the pool run the job with
	// extra kernel shards when workers would otherwise idle (see
	// Options.AutoShard): the pool calls ShardRun(rng, n) instead of Run
	// for some n in {2, 4} it budgeted from the spare workers. The job
	// must produce output byte-identical to Run at any shard count — the
	// guarantee the sharded simulation harnesses already carry — so the
	// promotion changes wall time only, never a digit of output.
	ShardRun func(rng *sim.Rand, shards int) (Output, error)
}

// Options tunes pool scheduling; the zero value is the historical
// behavior.
type Options struct {
	// AutoShard grants spare cores to shardable jobs at dispatch time:
	// whenever a job is handed to a worker while the core budget exceeds
	// the jobs available to run (a grid smaller than the machine, or the
	// trailing dispatches of a draining queue), it runs through ShardRun
	// with the spare capacity instead of on one core. Already-running
	// jobs are never re-sharded — the decision is made once, when the job
	// starts — so a long pole only benefits when the supply shortfall is
	// visible at its dispatch. Jobs without ShardRun are unaffected, and
	// output is byte-identical either way.
	AutoShard bool
	// Cache arms Job.CacheKey memoization: jobs with a valid key consult
	// the store before running and record their Output after. nil (the
	// zero value) disables caching entirely — keys are ignored and every
	// job runs. Because stored outputs are exactly what the job
	// produced, Text output is byte-identical with the cache on, off,
	// cold or warm.
	Cache *resultstore.Store
}

// Result is one job's outcome inside a Report.
type Result struct {
	Name   string `json:"name"`
	Seed   uint64 `json:"seed"`
	Text   string `json:"text"`
	Data   any    `json:"data,omitempty"`
	WallNs int64  `json:"wall_ns"`
	Err    string `json:"err,omitempty"`
	// Cached marks a result served from Options.Cache instead of a Run
	// call. Text is byte-identical to a fresh run; Data round-trips
	// through the store as generic JSON values.
	Cached bool `json:"cached,omitempty"`
}

// Report aggregates a pool run.
//
// Speedup is CPUNs/WallNs where process CPU accounting is available
// (unix): the CPU seconds a run consumes equal its sequential wall time
// for these CPU-bound jobs, so the ratio is the true wall-clock speedup
// and honestly reports ~1x on a single-core machine. SerialNs — the sum
// of per-job wall times — is the fallback divisor elsewhere; it inflates
// under core oversubscription, so prefer the CPU-based number.
type Report struct {
	Jobs     int      `json:"jobs"`
	Workers  int      `json:"workers"`
	WallNs   int64    `json:"wall_ns"`   // pool wall-clock time
	CPUNs    int64    `json:"cpu_ns"`    // process CPU consumed by the run
	SerialNs int64    `json:"serial_ns"` // sum of per-job wall times
	Speedup  float64  `json:"speedup"`   // CPUNs / WallNs (SerialNs fallback)
	Results  []Result `json:"results"`   // in submission order
	// Cache snapshots the result store's traffic for this run (job-level
	// hits plus any probe-level traffic the jobs generated inside the
	// same store); present only when the pool ran with Options.Cache.
	Cache *resultstore.Stats `json:"cache,omitempty"`
}

// Run executes jobs on a pool of workers goroutines and returns the
// aggregated report. workers <= 0 means runtime.GOMAXPROCS(0). emit (if
// non-nil) is called on the caller's goroutine with each Result in
// submission order, as soon as that result and all earlier ones have
// completed, so a driver printing emitted texts produces output
// byte-identical to a sequential run without waiting for the whole pool to
// drain. The first job error is returned (the report still carries every
// result, including the failed job's Err); a panicking job propagates its
// panic.
func Run(jobs []Job, workers int, opts Options, emit func(Result)) (Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// capacity is the caller's core budget; the goroutine count below is
	// clamped to the job count, but auto-shard promotion spends the full
	// budget (a lone job on a 4-core budget runs 4-sharded).
	capacity := workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	rep := Report{Jobs: len(jobs), Workers: workers, Results: make([]Result, len(jobs))}
	if len(jobs) == 0 {
		rep.Speedup = 1
		return rep, nil
	}

	var cacheStart resultstore.Stats
	if opts.Cache != nil {
		// Report.Cache is this run's traffic, so the store's counters —
		// cumulative over its lifetime, it may serve many runs — are
		// snapshotted here and the delta taken after the pool drains.
		cacheStart = opts.Cache.Stats()
	}
	if err := validate(jobs); err != nil {
		return rep, err
	}

	// Dispatch the expensive jobs first so the longest starts immediately.
	pendingQ := make([]int, len(jobs))
	for i := range pendingQ {
		pendingQ[i] = i
	}
	sort.SliceStable(pendingQ, func(a, b int) bool {
		return jobs[pendingQ[a]].Cost > jobs[pendingQ[b]].Cost
	})

	start := time.Now()
	cpu0 := processCPUNs()
	type work struct{ idx, shards int }
	next := make(chan work, len(jobs)) // buffered: the coordinator never blocks
	done := make(chan int, len(jobs))  // buffered: workers never block here
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wk := range next {
				idx := wk.idx
				job := jobs[idx]
				res := Result{Name: job.Name, Seed: job.Seed}
				t0 := time.Now()
				var out Output
				var err error
				memo := opts.Cache != nil && job.CacheKey.Valid()
				if memo {
					var co cachedOutput
					if opts.Cache.Get(job.CacheKey, &co) {
						out = Output{Text: co.Text, Data: co.Data}
						res.Cached = true
					}
				}
				switch {
				case res.Cached:
					// Memoized: the stored Output is what Run produced.
				case wk.shards > 1:
					out, err = job.ShardRun(sim.NewRand(job.Seed), wk.shards)
				default:
					out, err = job.Run(sim.NewRand(job.Seed))
				}
				if memo && !res.Cached && err == nil {
					opts.Cache.Put(job.CacheKey, cachedOutput{Text: out.Text, Data: out.Data})
				}
				res.WallNs = time.Since(t0).Nanoseconds()
				if err != nil {
					res.Err = err.Error()
				} else {
					res.Text = out.Text
					res.Data = out.Data
				}
				rep.Results[idx] = res
				done <- idx
			}
		}()
	}
	// Jobs wait in the cost-sorted pending queue and are released to the
	// worker channel only up to the goroutine count: holding the rest
	// back lets every dispatch see the pool's true state, so auto-shard
	// promotion is evaluated at each job's start rather than once at
	// startup.
	dispatched, closed, inFlight := 0, false, 0
	// Core accounting for auto-shard promotion: a promoted job holds
	// `shards` cores until it completes, not one, so the spare-capacity
	// check counts cores in flight (busyCores), never just jobs. Without
	// this, back-to-back promotions each see the previous promoted job as
	// one core and a 3-job queue on an 8-core budget dispatches 12 shard
	// goroutines.
	busyCores := 0
	coresOf := make([]int, len(jobs))
	fill := func() {
		for len(pendingQ) > 0 && inFlight < workers {
			idx := pendingQ[0]
			pendingQ = pendingQ[1:]
			w := work{idx: idx, shards: 1}
			// Spare capacity after this job and everything still pending
			// gets a core goes to this job as extra kernel shards. The
			// promotion spends idle cores, never contends for busy ones.
			if opts.AutoShard && jobs[idx].ShardRun != nil {
				if spare := capacity - busyCores - 1 - len(pendingQ); spare >= 3 {
					w.shards = 4
				} else if spare >= 1 {
					w.shards = 2
				}
			}
			inFlight++
			busyCores += w.shards
			coresOf[idx] = w.shards
			next <- w
			dispatched++
		}
		if dispatched == len(jobs) && !closed {
			close(next)
			closed = true
		}
	}
	fill()
	// Emit the contiguous completed prefix as completions arrive; the
	// receive on done orders each Results write before its read here.
	completed := make([]bool, len(jobs))
	emitted := 0
	for range jobs {
		idx := <-done
		inFlight--
		busyCores -= coresOf[idx]
		completed[idx] = true
		fill()
		for emitted < len(jobs) && completed[emitted] {
			if emit != nil {
				emit(rep.Results[emitted])
			}
			emitted++
		}
	}
	wg.Wait()
	rep.WallNs = time.Since(start).Nanoseconds()
	if cpu1 := processCPUNs(); cpu1 > cpu0 {
		rep.CPUNs = cpu1 - cpu0
	}
	if opts.Cache != nil {
		st := opts.Cache.Stats()
		st.Hits -= cacheStart.Hits
		st.Misses -= cacheStart.Misses
		st.Stored -= cacheStart.Stored
		rep.Cache = &st
	}

	var firstErr error
	for _, r := range rep.Results {
		rep.SerialNs += r.WallNs
		if r.Err != "" && firstErr == nil {
			firstErr = fmt.Errorf("runner: job %q: %s", r.Name, r.Err)
		}
	}
	if rep.WallNs > 0 {
		work := rep.CPUNs
		if work == 0 {
			work = rep.SerialNs
		}
		rep.Speedup = float64(work) / float64(rep.WallNs)
	}
	return rep, firstErr
}

// cachedOutput is the stored envelope of a memoized job: exactly the
// Output fields a fresh Run produces.
type cachedOutput struct {
	Text string `json:"text"`
	Data any    `json:"data,omitempty"`
}

// validate rejects duplicate names and jobs without a Run function before
// any worker starts.
func validate(jobs []Job) error {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.Name] {
			return fmt.Errorf("runner: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Run == nil {
			return fmt.Errorf("runner: job %q has no Run function", j.Name)
		}
	}
	return nil
}

// RenderAll concatenates the rendered outputs in submission order, one
// blank line between jobs — exactly what a sequential driver would print.
func (r Report) RenderAll() string {
	var out []byte
	for _, res := range r.Results {
		out = append(out, res.Text...)
		out = append(out, '\n')
	}
	return string(out)
}

// WriteJSON writes the report as indented JSON to path.
func (r Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadJSON loads a report previously written with WriteJSON. Data fields
// round-trip as generic JSON values (maps/slices), not the original types.
func ReadJSON(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(b, &rep)
	return rep, err
}
