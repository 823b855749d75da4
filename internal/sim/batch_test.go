package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// chainTestActor is a packet-like actor for the batch-equivalence property
// test: each firing logs (name, clock), appends the fire time to its
// lineage history, and reschedules itself after the next pre-drawn
// strictly positive delay — the forward-scheduling shape the DrainAt
// contract is stated for.
type chainTestActor struct {
	log    *[]string
	k      *Kernel
	name   string
	delays []Time
	hist   []Time
	inj    uint64
}

func (c *chainTestActor) Act() {
	c.hist = append(c.hist, c.k.Now())
	*c.log = append(*c.log, fmt.Sprintf("%s@%d", c.name, c.k.Now()))
	if len(c.delays) > 0 {
		d := c.delays[0]
		c.delays = c.delays[1:]
		c.k.AfterActor(d, c)
	}
}

func (c *chainTestActor) Lineage() ([]Time, uint64) { return c.hist, c.inj }

// buildBatchWorkload schedules an identical randomized workload into k:
// many actors starting at colliding times (small time range), each
// chaining through random positive delays; lineage mode is switched on
// after setup when asked.
func buildBatchWorkload(k *Kernel, log *[]string, seed uint64, lineage bool) {
	rng := NewRand(seed)
	for i := 0; i < 64; i++ {
		a := &chainTestActor{log: log, k: k, name: fmt.Sprintf("a%d", i), inj: uint64(i)}
		hops := rng.Intn(4)
		for h := 0; h < hops; h++ {
			a.delays = append(a.delays, Time(1+rng.Intn(5)))
		}
		k.AtActor(Time(rng.Intn(40)), a)
	}
	if lineage {
		k.BeginLineageOrder()
	}
}

// TestStepBatchMatchesStepOrder is the batch-equivalence property: for the
// same workload, firing events through StepBatch (timestamp batches via
// DrainAt) and through the plain one-event step loop (Run) produces the
// identical (time, order) firing sequence — under sequence tie ordering
// and under lineage tie ordering, and likewise when the run is chopped
// into RunUntilBatch windows the way ParallelExec drives shard kernels.
func TestStepBatchMatchesStepOrder(t *testing.T) {
	for _, lineage := range []bool{false, true} {
		name := "seq"
		if lineage {
			name = "lineage"
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				var stepLog []string
				ks := NewKernel()
				buildBatchWorkload(ks, &stepLog, seed, lineage)
				stepEnd := ks.Run()

				var batchLog []string
				kb := NewKernel()
				buildBatchWorkload(kb, &batchLog, seed, lineage)
				var batchEnd Time
				for {
					at, ok := kb.StepBatch()
					if !ok {
						break
					}
					batchEnd = at
				}
				if !reflect.DeepEqual(stepLog, batchLog) {
					t.Fatalf("seed %d: StepBatch order diverges from step order\nstep:  %v\nbatch: %v",
						seed, stepLog, batchLog)
				}
				if stepEnd != batchEnd {
					t.Fatalf("seed %d: last timestamp %d via batches, %d via steps", seed, batchEnd, stepEnd)
				}

				var winLog []string
				kw := NewKernel()
				buildBatchWorkload(kw, &winLog, seed, lineage)
				for dl := Time(7); !kw.RunUntilBatch(dl); dl += 7 {
				}
				if !reflect.DeepEqual(stepLog, winLog) {
					t.Fatalf("seed %d: windowed RunUntilBatch order diverges from step order\nstep:   %v\nwindow: %v",
						seed, stepLog, winLog)
				}
			}
		})
	}
}

type countActor struct{ n int }

func (a *countActor) Act() { a.n++ }

// TestStepBatchZeroAllocsWhenWarm pins the batch path's steady state: once
// the kernel's batch buffer, queue tiers and event pool have grown,
// draining and firing a timestamp batch allocates nothing — the property that lets ParallelExec windows run through
// RunUntilBatch without the per-window garbage the outbox path used to
// produce.
func TestStepBatchZeroAllocsWhenWarm(t *testing.T) {
	k := NewKernel()
	actors := make([]countActor, 8)
	fire := func() {
		at := k.Now() + 1
		for i := range actors {
			k.AtActor(at, &actors[i])
		}
		k.StepBatch()
	}
	for i := 0; i < 16; i++ {
		fire()
	}
	if n := testing.AllocsPerRun(100, fire); n != 0 {
		t.Fatalf("warm StepBatch allocates %.1f times/op, want 0", n)
	}
}

// TestDrainAtBatchBoundaries pins DrainAt's contract details directly: it
// returns every event sharing the earliest timestamp in firing order
// without executing them, advances the clock to that timestamp, reuses the
// caller's buffer, and leaves later events queued.
func TestDrainAtBatchBoundaries(t *testing.T) {
	k := NewKernel()
	var log []string
	tag := func(s string) Handler { return func() { log = append(log, s) } }
	k.At(20, tag("c"))
	k.At(10, tag("a"))
	k.At(10, tag("b"))
	buf := make([]Batched, 0, 4)
	got := k.DrainAt(buf[:0])
	if len(got) != 2 {
		t.Fatalf("DrainAt returned %d events, want the 2 at t=10", len(got))
	}
	if k.Now() != 10 {
		t.Fatalf("clock %d after drain, want 10", k.Now())
	}
	if len(log) != 0 {
		t.Fatalf("DrainAt executed events: %v", log)
	}
	if k.Pending() != 1 {
		t.Fatalf("%d events pending after drain, want the 1 at t=20", k.Pending())
	}
	for _, b := range got {
		b.Fire()
	}
	if !reflect.DeepEqual(log, []string{"a", "b"}) {
		t.Fatalf("batch fired %v, want [a b]", log)
	}
	if got2 := k.DrainAt(got[:0]); len(got2) != 1 || &got2[0] != &got[0] {
		t.Fatalf("second drain did not reuse the caller's buffer")
	}
}
