package sim

import "testing"

// BenchmarkKernelScheduleDrain measures the raw Schedule+Pop cost: fill the
// queue with out-of-order timestamps, then drain it. This is the access
// pattern of a machine warming up and finishing a timestep.
func BenchmarkKernelScheduleDrain(b *testing.B) {
	const n = 4096
	r := NewRand(1)
	times := make([]Time, n)
	for i := range times {
		times[i] = Time(r.Intn(1 << 20))
	}
	fn := func() {}
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		for _, t := range times {
			k.At(base+t, fn)
		}
		k.Run()
	}
}

// TestKernelScheduleZeroAllocs pins the hot-path guarantee the 4-ary
// pool heap exists for: once the pool has grown to the peak queue depth,
// Schedule (At/After) and Pop (step inside Run) do not allocate.
func TestKernelScheduleZeroAllocs(t *testing.T) {
	const depth = 512
	k := NewKernel()
	r := NewRand(3)
	fn := func() {}
	// Warm the pool, heap and free list to their peak sizes.
	for i := 0; i < depth; i++ {
		k.At(Time(r.Intn(1<<16)), fn)
	}
	k.Run()
	avg := testing.AllocsPerRun(100, func() {
		base := k.Now()
		for i := 0; i < depth; i++ {
			k.At(base+Time(r.Intn(1<<16)), fn)
		}
		// Drain through RunUntil first so the cached-root peek path is
		// under the same 0-alloc contract, then finish with Run.
		k.RunUntil(base + 1<<15)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("warm Schedule/Run allocated %.1f times per %d events, want 0", avg, depth)
	}
}

// TestRunUntilPeeksEarliest pins the peek RunUntil stops on: nextAt must
// report the earliest pending event and track schedule/pop churn, including
// At calls made while paused mid-drain that land before an already sorted
// bucket, and events placed in the ring and past its window.
func TestRunUntilPeeksEarliest(t *testing.T) {
	k := NewKernel()
	var fired []Time
	rec := func() { fired = append(fired, k.Now()) }
	far := Time(ringSize) << bucketShift * 3
	for _, at := range []Time{50, 10, 30, 70, 5000, 4000, far} {
		k.At(at, rec)
	}
	peek := func(want Time) {
		t.Helper()
		if at, ok := k.nextAt(); !ok || at != want {
			t.Fatalf("nextAt = %v, %v; want %v, true", at, ok, want)
		}
	}
	peek(10)
	if k.RunUntil(30) {
		t.Fatal("queue should not have drained by t=30")
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("fired %v, want [10 30]", fired)
	}
	peek(50)
	// A newly scheduled earlier event must be the next one.
	k.At(40, rec)
	peek(40)
	if k.RunUntil(100) {
		t.Fatal("queue should not have drained by t=100")
	}
	if len(fired) != 5 || fired[2] != 40 || fired[4] != 70 {
		t.Fatalf("fired %v", fired)
	}
	peek(4000)
	if k.RunUntil(4000) {
		t.Fatal("queue should not have drained by t=4000")
	}
	// The bucket of 5000 is now active; 4500 lands before its head.
	peek(5000)
	k.At(4500, rec)
	peek(4500)
	if !k.RunUntil(far) {
		t.Fatal("queue should have drained")
	}
	want := []Time{10, 30, 40, 50, 70, 4000, 4500, 5000, far}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if _, ok := k.nextAt(); ok {
		t.Fatal("nextAt reports an event on a drained kernel")
	}
}

// TestKernelFreeListBoundsPool checks that fired events recycle their pool
// slots: scheduling in waves must not grow the pool past the peak depth.
func TestKernelFreeListBoundsPool(t *testing.T) {
	const depth = 64
	k := NewKernel()
	fn := func() {}
	for wave := 0; wave < 50; wave++ {
		base := k.Now()
		for i := 0; i < depth; i++ {
			k.At(base+Time(i), fn)
		}
		k.Run()
	}
	if got := len(k.pool); got > depth {
		t.Fatalf("pool grew to %d slots across waves of %d events; free list not reusing", got, depth)
	}
}

// BenchmarkKernelSteadyState measures the hot loop every simulation spends
// its life in: events firing and rescheduling follow-ups, with the queue at
// a steady depth — the pattern of routers, adapters and pipelines in flight.
func BenchmarkKernelSteadyState(b *testing.B) {
	const depth = 1024
	k := NewKernel()
	r := NewRand(2)
	var tick Handler
	tick = func() { k.After(Time(1+r.Intn(997)), tick) }
	for i := 0; i < depth; i++ {
		k.At(Time(r.Intn(997)), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.step()
	}
}

// horizonActor is a packet-like Lineaged actor for the network-horizon
// benchmark: it records its fire time as its newest history entry and
// reschedules itself a drawn hop latency later.
type horizonActor struct {
	k    *Kernel
	r    *Rand
	hist [1]Time
	inj  uint64
}

func (a *horizonActor) Act() {
	a.hist[0] = a.k.Now()
	a.k.AfterActor(2+2*Time(a.r.Intn(20000)), a)
}

func (a *horizonActor) Lineage() ([]Time, uint64) { return a.hist[:], a.inj }

// BenchmarkKernelNetworkHorizon measures the queue under the shape the
// network simulation gives it: ~20k pending lineage-mode events, all within
// a 40 ns horizon, hop latencies on a 2 ps grid so a timestamp holds ~1.6
// events on average and same-time ties are routine.
func BenchmarkKernelNetworkHorizon(b *testing.B) {
	const pending = 20000
	k := NewKernel()
	r := NewRand(4)
	actors := make([]horizonActor, pending)
	for i := range actors {
		actors[i] = horizonActor{k: k, r: r, inj: uint64(i)}
		k.AtActor(2*Time(r.Intn(20000)), &actors[i])
	}
	k.BeginLineageOrder()
	for i := 0; i < 4*pending; i++ {
		k.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.step()
	}
}
