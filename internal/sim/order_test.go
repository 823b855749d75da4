package sim

import (
	"fmt"
	"strings"
	"testing"
)

// scheduler is the part of the kernel API the order workload drives, so the
// same workload runs on a Kernel and on the brute-force reference queue.
type scheduler interface {
	Now() Time
	At(at Time, fn Handler)
	AtActor(at Time, a Actor)
}

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at    Time
	seq   uint64
	fn    Handler
	actor Actor
}

// refKernel is the brute-force reference: an unsorted pending list whose
// pop scans for the minimum under the documented order — (at, seq) in
// sequence mode; in lineage mode setup events first by seq, then runtime
// Lineaged events by newest-first history walk and injection order, with
// schedule order for anything else.
type refKernel struct {
	now      Time
	seq      uint64
	pending  []refEvent
	lineage  bool
	setupSeq uint64
}

func (r *refKernel) Now() Time                { return r.now }
func (r *refKernel) At(at Time, fn Handler)   { r.push(refEvent{at: at, fn: fn}) }
func (r *refKernel) AtActor(at Time, a Actor) { r.push(refEvent{at: at, actor: a}) }

func (r *refKernel) push(e refEvent) {
	if e.at < r.now {
		panic("ref: event scheduled in the past")
	}
	r.seq++
	e.seq = r.seq
	r.pending = append(r.pending, e)
}

func (r *refKernel) beginLineage() {
	r.lineage = true
	r.setupSeq = r.seq
}

func (r *refKernel) before(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if !r.lineage {
		return a.seq < b.seq
	}
	sa, sb := a.seq <= r.setupSeq, b.seq <= r.setupSeq
	if sa || sb {
		if sa != sb {
			return sa
		}
		return a.seq < b.seq
	}
	la, okA := a.actor.(Lineaged)
	lb, okB := b.actor.(Lineaged)
	if !okA || !okB {
		return a.seq < b.seq
	}
	ha, ia := la.Lineage()
	hb, ib := lb.Lineage()
	for da, db := len(ha)-1, len(hb)-1; ; da, db = da-1, db-1 {
		switch {
		case da < 0 && db < 0:
			return ia < ib
		case da < 0 || db < 0:
			return da < 0
		case ha[da] != hb[db]:
			return ha[da] < hb[db]
		}
	}
}

// runUntil fires every event at or before deadline in reference order and
// leaves the clock at the deadline, like Kernel.RunUntil.
func (r *refKernel) runUntil(deadline Time) {
	for len(r.pending) > 0 {
		m := 0
		for i := 1; i < len(r.pending); i++ {
			if r.before(&r.pending[i], &r.pending[m]) {
				m = i
			}
		}
		e := r.pending[m]
		if e.at > deadline {
			break
		}
		r.pending[m] = r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		r.now = e.at
		if e.fn != nil {
			e.fn()
		} else {
			e.actor.Act()
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// orderWorld is one randomized workload: actors that reschedule themselves
// with delays drawn across every queue tier (zero, inside one bucket, whole
// buckets, past the ring window) or park, and occasionally wake a burst of
// parked actors at one instant with identical histories. It logs every
// firing.
type orderWorld struct {
	s       scheduler
	rng     *Rand
	log     []string
	actors  []*orderActor
	lineage bool
}

type orderActor struct {
	w       *orderWorld
	id      int
	hops    int
	pending bool
	hist    []Time
	inj     uint64
}

func (a *orderActor) Lineage() ([]Time, uint64) { return a.hist, a.inj }

func (a *orderActor) Act() {
	w := a.w
	now := w.s.Now()
	a.pending = false
	a.hist = append(a.hist, now)
	w.log = append(w.log, fmt.Sprintf("a%d@%d", a.id, now))
	if a.hops == 0 || w.rng.Intn(4) == 0 {
		// Done, or parked until a burst or an outside wake.
		return
	}
	a.hops--
	a.pending = true
	w.s.AtActor(now+w.delay(), a)
	switch w.rng.Intn(8) {
	case 0:
		w.burst(a.hist)
	case 1:
		if !w.lineage {
			// Runtime closures are unranked in lineage mode; sequence
			// mode orders them with actors by schedule sequence.
			id := a.id
			w.s.At(now+w.delay(), func() { w.log = append(w.log, fmt.Sprintf("c%d@%d", id, w.s.Now())) })
		}
	}
}

// delay draws a rescheduling delay from the mix of queue tiers.
func (w *orderWorld) delay() Time {
	switch w.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return Time(w.rng.Intn(1 << bucketShift))
	case 2:
		return Time(1+w.rng.Intn(8)) << bucketShift
	case 3:
		return Time(w.rng.Intn(200 * int(Nanosecond)))
	default:
		return Time(1 + w.rng.Intn(40*int(Nanosecond)))
	}
}

// burst wakes up to eight parked actors at one instant, each adopting the
// waker's history (the machine's credit and unpark pattern), so they tie
// on timestamp and rank and order by injection.
func (w *orderWorld) burst(hist []Time) {
	at := w.s.Now() + w.delay()
	for n, i := 0, w.rng.Intn(len(w.actors)); n < 8 && i < len(w.actors); i++ {
		b := w.actors[i]
		if b.pending || b.hops == 0 {
			continue
		}
		b.hist = append(b.hist[:0], hist...)
		b.hops--
		b.pending = true
		w.s.AtActor(at, b)
		n++
	}
}

// setup schedules the world's setup events: every actor at a near start
// time or far past the ring window, plus setup closures.
func (w *orderWorld) setup() {
	for _, a := range w.actors {
		at := Time(w.rng.Intn(2 * int(Nanosecond)))
		if w.rng.Intn(4) == 0 {
			at = Time(ringSize)<<bucketShift + Time(w.rng.Intn(4*int(Microsecond)))
		}
		a.pending = true
		w.s.AtActor(at, a)
	}
	for i := 0; i < 20; i++ {
		i := i
		w.s.At(Time(w.rng.Intn(int(Microsecond))), func() { w.log = append(w.log, fmt.Sprintf("s%d@%d", i, w.s.Now())) })
	}
}

func newOrderWorld(s scheduler, seed uint64, lineage bool) *orderWorld {
	w := &orderWorld{s: s, rng: NewRand(seed), lineage: lineage}
	for i := 0; i < 300; i++ {
		w.actors = append(w.actors, &orderActor{w: w, id: i, hops: 1 + w.rng.Intn(30), inj: uint64(i)})
	}
	return w
}

// runOrderWorld drives one world through interleaved RunUntil deadlines,
// waking an idle actor from outside at each pause (a late merge).
func runOrderWorld(w *orderWorld, runUntil func(Time), seed uint64) {
	dl := NewRand(seed ^ 0x9e3779b97f4a7c15)
	for t := Time(0); t < 8*Microsecond; {
		t += Time(1 + dl.Intn(60*int(Nanosecond)))
		runUntil(t)
		if a := w.actors[dl.Intn(len(w.actors))]; !a.pending && a.hops > 0 {
			a.hist = append(a.hist, t)
			a.hops--
			a.pending = true
			w.s.AtActor(t+Time(dl.Intn(300)), a)
		}
	}
	runUntil(1 << 62)
}

// TestKernelMatchesReferenceOrder is the differential order test: random
// schedules exercising the near heap, every ring bucket distance, the far
// heap, same-instant bursts and late inserts before the active bucket fire
// in exactly the brute-force reference order, in both tie modes, on fresh
// and on Reset kernels.
func TestKernelMatchesReferenceOrder(t *testing.T) {
	for _, lineage := range []bool{false, true} {
		name := "seq"
		if lineage {
			name = "lineage"
		}
		t.Run(name, func(t *testing.T) {
			k := NewKernel()
			for seed := uint64(1); seed <= 6; seed++ {
				if seed > 1 {
					k.Reset()
				}
				ref := &refKernel{}
				rw := newOrderWorld(ref, seed, lineage)
				rw.setup()
				if lineage {
					ref.beginLineage()
				}
				runOrderWorld(rw, ref.runUntil, seed)

				kw := newOrderWorld(k, seed, lineage)
				kw.setup()
				if lineage {
					k.BeginLineageOrder()
				}
				runOrderWorld(kw, func(dl Time) { k.RunUntil(dl) }, seed)

				if len(rw.log) < 3000 {
					t.Fatalf("seed %d: only %d firings, workload too small", seed, len(rw.log))
				}
				for i := range rw.log {
					if i >= len(kw.log) || kw.log[i] != rw.log[i] {
						lo := max(0, i-3)
						t.Fatalf("seed %d: firing %d diverges from the reference\nref:    %s\nkernel: %s",
							seed, i, strings.Join(rw.log[lo:min(i+3, len(rw.log))], " "),
							strings.Join(kw.log[lo:min(i+3, len(kw.log))], " "))
					}
				}
				if len(kw.log) != len(rw.log) || k.Pending() != 0 {
					t.Fatalf("seed %d: kernel fired %d events (%d pending), reference %d",
						seed, len(kw.log), k.Pending(), len(rw.log))
				}
				if k.UnrankedTies() != 0 {
					t.Fatalf("seed %d: %d unranked tie compares in an all-Lineaged run", seed, k.UnrankedTies())
				}
			}
		})
	}
}

// TestUnrankedTiesCounted pins the hazard counter: in lineage mode a
// runtime closure tied with another runtime event at one timestamp is
// ordered by schedule sequence, and every such compare is counted.
func TestUnrankedTiesCounted(t *testing.T) {
	k := NewKernel()
	var log []string
	a := &lineagedStub{log: &log, name: "a", hist: []Time{5}}
	k.AtActor(10, &lineagedStub{log: &log, name: "setup"})
	k.BeginLineageOrder()
	k.At(20, func() { log = append(log, "c1") })
	k.AtActor(20, a)
	k.At(20, func() { log = append(log, "c2") })
	k.Run()
	if got := strings.Join(log, " "); got != "setup c1 a c2" {
		t.Fatalf("order %q, want schedule order among the runtime events", got)
	}
	if k.UnrankedTies() == 0 {
		t.Fatal("unranked tie compares not counted")
	}
	k.Reset()
	if k.UnrankedTies() != 0 {
		t.Fatal("Reset kept the unranked tie count")
	}
}

// TestRankCaptureCheck pins the test-only rank check: an actor whose
// history changes while its event is pending would fire out of the order
// its stale rank gave it, so the pop panics.
func TestRankCaptureCheck(t *testing.T) {
	if !checkRanks {
		t.Fatal("rank check is off in a test binary")
	}
	k := NewKernel()
	var log []string
	a := &lineagedStub{log: &log, name: "a", hist: []Time{1}}
	k.BeginLineageOrder()
	k.AtActor(10, a)
	a.hist = append(a.hist, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("history changed while pending, but pop did not panic")
		}
	}()
	k.Run()
}
