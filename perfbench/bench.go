package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"anton3/internal/serdes"
	"anton3/internal/telemetry"
)

// spanNames are the per-layer span metrics: each is the host seconds a
// pass spends inside calls of that name (median over traced passes).
var spanNames = []string{
	"flow.run_point_s", "synth.run_point_s", "md.step_s", "traffic.replay_step_s",
	"machine.engine_step_s", "setup.harness_s", "setup.machine_s", "setup.water_s",
}

// machineCounters are the harness telemetry counters reported per pass.
var machineCounters = []struct {
	name string
	id   int
	div  float64
	unit string
}{
	{"injected", telemetry.CtrInjected, 1, "count"},
	{"delivered", telemetry.CtrDelivered, 1, "count"},
	{"park_events", telemetry.CtrParkEvents, 1, "count"},
	{"escape_vc_entries", telemetry.CtrEscapeVCEntries, 1, "count"},
	{"credit_stall_ns", telemetry.CtrCreditStallPs, 1000, "ns"},
}

// span is one timed call, in nanoseconds since the run started. Setup
// spans have Op -1; a span inside an operation has its op's span as
// Parent (-1 for the op span itself).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// passStats is what one pass measured.
type passStats struct {
	opNs    []int64
	setupNs []int64
	refNs   []int64
	digests []string
	spanNs  map[string]int64

	pkts, atomSteps, events float64
	parkedPos, parkedFrc    float64
	hits, lookups           float64
	wire                    wireStats
	tel                     telemetry.Shard
	allocBytes              uint64
	gcCycles                uint32
}

type wireStats struct{ wire, baseline uint64 }

func (w *wireStats) add(s serdes.Stats) {
	w.wire += s.WireBits
	w.baseline += s.BaselineBits
}

func (w wireStats) reduction() float64 {
	return ratio(float64(w.baseline-w.wire), float64(w.baseline))
}

// bench drives one workload and accumulates its checks and spans.
type bench struct {
	traced    bool
	setupOnly bool // passes build their cells but issue no operations
	cur       *passStats
	t0        time.Time
	spans     []span
	ops       int // operations issued so far (span op ids)
	openOp    int // span index of the running operation

	ref      *refKernel
	sinceRef time.Duration // host time timed since the last reference run

	expect []string // pinned digests (default seed only)
	first  []string // digests of the run's first pass

	attempted, failed int
	errs              []string
	reports           map[string]string
}

func newBench() (*bench, error) {
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	return &bench{t0: time.Now(), openOp: -1, reports: map[string]string{}, ref: ref}, nil
}

// measureSetup repeats set-up-only passes of wl for the budget, running
// at least one: set-up is a small share of a pass, and a few passes give
// too few samples of it.
func (b *bench) measureSetup(wl *workload, seed int64, budget time.Duration) []*passStats {
	b.setupOnly = true
	defer func() { b.setupOnly = false }()
	return b.measure(wl, seed, budget)
}

// measure repeats passes of wl until the budget would be exceeded by one
// more median-length pass, always running at least one.
func (b *bench) measure(wl *workload, seed int64, budget time.Duration) []*passStats {
	start := time.Now()
	var passes []*passStats
	var durs []float64
	for {
		b.cur = &passStats{spanNs: map[string]int64{}}
		b.sinceRef = refEvery
		t := time.Now()
		wl.pass(b, seed)
		durs = append(durs, float64(time.Since(t)))
		passes = append(passes, b.cur)
		if b.first == nil && !b.setupOnly {
			b.first = b.cur.digests
		}
		if float64(time.Since(start))+median(durs) > float64(budget) {
			return passes
		}
	}
}

// calibrate runs the reference kernel once refEvery of timed host time.
// Set-up-only passes skip it: the yardstick is read between operations,
// where the simulator runs.
func (b *bench) calibrate() {
	if !b.setupOnly && b.sinceRef >= refEvery {
		b.cur.refNs = append(b.cur.refNs, int64(b.ref.run()))
		b.sinceRef = 0
	}
}

// setup times one set-up call. It starts from a collected heap, so the
// process's peak memory is that of the largest cell rather than an
// accident of when the collector last ran.
func (b *bench) setup(name string, fn func()) {
	runtime.GC()
	b.calibrate()
	t := time.Now()
	fn()
	d := time.Since(t)
	b.sinceRef += d
	b.cur.setupNs = append(b.cur.setupNs, int64(d))
	if b.traced {
		b.record(name, -1, -1, t, d)
	}
}

// op runs one operation: it times the call, turns a panic or a failed
// check into a failed operation, and compares the simulated result's
// digest with the pinned one (default seed) and with the first pass.
func (b *bench) op(name string, fn func(d *digest) error) {
	if b.setupOnly {
		return
	}
	var ms0, ms1 runtime.MemStats
	if b.traced {
		runtime.ReadMemStats(&ms0)
		b.openOp = len(b.spans)
		b.spans = append(b.spans, span{})
	}
	d := newDigest()
	b.attempted++
	b.calibrate()
	t := time.Now()
	err := call(fn, d)
	dt := time.Since(t)
	b.sinceRef += dt
	if b.traced {
		runtime.ReadMemStats(&ms1)
		b.cur.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		b.cur.gcCycles += ms1.NumGC - ms0.NumGC
		b.spans[b.openOp] = b.newSpan(name, b.ops, -1, t, dt)
		b.cur.spanNs[name] += int64(dt)
		b.openOp = -1
	}
	b.ops++
	i := len(b.cur.opNs)
	b.cur.opNs = append(b.cur.opNs, int64(dt))
	sum := d.sum()
	b.cur.digests = append(b.cur.digests, sum)
	if err == nil {
		switch {
		case b.expect != nil && (i >= len(b.expect) || b.expect[i] != sum):
			err = fmt.Errorf("op %d (%s): result digest %s differs from the pinned default-seed digest", i, name, sum)
		case b.first != nil && b.first[i] != sum:
			err = fmt.Errorf("op %d (%s): result digest %s differs from the first pass", i, name, sum)
		}
	}
	if err != nil {
		b.failed++
		if len(b.errs) < 20 {
			b.errs = append(b.errs, err.Error())
		}
	}
}

// span times a layer call inside the running operation (traced runs).
func (b *bench) span(name string, fn func()) {
	if !b.traced {
		fn()
		return
	}
	t := time.Now()
	fn()
	d := time.Since(t)
	b.record(name, b.ops, b.openOp, t, d)
}

func (b *bench) record(name string, op, parent int, t time.Time, d time.Duration) {
	b.spans = append(b.spans, b.newSpan(name, op, parent, t, d))
	b.cur.spanNs[name] += int64(d)
}

func (b *bench) newSpan(name string, op, parent int, t time.Time, d time.Duration) span {
	start := int64(t.Sub(b.t0))
	return span{Name: name, Op: op, Parent: parent, Start: start, End: start + int64(d)}
}

// report keeps one simulated result line for the run's report.
func (b *bench) report(name, line string) {
	if !b.setupOnly {
		b.reports[name] = line
	}
}

func (b *bench) printReport(w io.Writer, h fingerprint, rec record) {
	fmt.Fprintf(w, "host: %s\n", h)
	names := make([]string, 0, len(rec.References))
	for k := range rec.References {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s: %s\n", k, rec.References[k])
	}
	fmt.Fprintln(w, rec.Unvalidated)
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "FAILED:", e)
	}
	fmt.Fprintf(w, "%s seed %d: %d passes, %d/%d operations failed\n", rec.Workload, rec.Seed, rec.Passes, b.failed, b.attempted)
}

func call(fn func(*digest) error, d *digest) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(d)
}

// digest hashes an operation's simulated result bit for bit.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.ints(int64(math.Float64bits(x)))
	}
}

func (d *digest) ints(xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		d.h.Write(buf[:])
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// scale converts the pass's host times to the reference speed.
func (p *passStats) scale() float64 {
	ref := make([]float64, len(p.refNs))
	for i, ns := range p.refNs {
		ref[i] = float64(ns)
	}
	return float64(refNominal) / median(ref)
}
