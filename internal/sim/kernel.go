package sim

import (
	"math/bits"
	"slices"
	"testing"
)

// Handler is a callback invoked when an event fires.
type Handler func()

// Actor is the closure-free event variant: objects that carry their own
// callback state (e.g. an in-flight packet) implement Act and are scheduled
// directly with AtActor/AfterActor. The interface value is two words copied
// into the event pool, so scheduling an existing object allocates nothing —
// the property the machine's packet hot path is built on.
type Actor interface {
	Act()
}

// event is one pool entry: the callback, as an Actor (closures are wrapped
// in funcActor), and its schedule sequence, read only by tieBefore. A free
// entry's seq links the free list instead.
type event struct {
	actor Actor
	seq   uint64
}

// funcActor schedules a closure as an Actor. A func value is
// pointer-shaped, so the conversion to Actor does not allocate.
type funcActor Handler

func (f funcActor) Act() { f() }

// heapKey is one event's ordering key: its timestamp and its rank. In
// sequence mode the rank is the schedule sequence; in lineage mode it is
// captured at push (see rankOf). Keeping both words in one 16-byte struct
// means a comparison loads one key with one cache access.
type heapKey struct {
	at   Time
	rank uint64
}

// Lineage ranks (see rankOf). Setup events keep their schedule sequence as
// rank, which stays below rankEmpty; a runtime Lineaged actor's rank sorts
// by its newest history entry, and an empty history precedes any other.
const (
	unranked  uint64 = 0       // runtime event without a Lineaged actor
	rankEmpty uint64 = 1 << 62 // Lineaged actor with an empty history
	rankHist  uint64 = 1 << 63 // | newest history entry
)

// heapRoot is the array index of the near heap's root. Indices 0..2 are
// unused padding: with the root at 3, the four children of node i sit at
// 4i-8..4i-5 — a block whose byte offset (16 bytes per key) is a multiple
// of 64, so every child scan in nearPop touches exactly one cache line
// once the keys array is cache-line aligned (large allocations are).
const heapRoot = 3

// Calendar ring geometry: ringSize buckets of 1<<bucketShift ps each, a
// window of ~131 ns — wider than the machine's hop and credit latencies,
// so nearly every runtime event lands in the ring. Bucket contents are
// pool slots stored in chunkLen-slot chunks. A bucket is sorted on
// activation by counting its events into 1<<subShift ps sub-buckets.
const (
	bucketShift = 8
	ringSize    = 512
	ringMask    = ringSize - 1
	ringWords   = ringSize / 64
	chunkLen    = 32
	subShift    = 2
	subBuckets  = 1 << (bucketShift - subShift)
)

// bucket is one ring bucket: a linked list of slot chunks.
type bucket struct {
	head, tail int32 // first and last chunk
	n          int32 // slots held
}

// farEntry is one far-heap event.
type farEntry struct {
	at   Time
	slot int32
}

// checkRanks enables the rank-capture check at pop in test binaries: a
// Lineaged actor's history must not change while its event is pending,
// because its rank was captured at push.
var checkRanks = testing.Testing()

// Kernel is a discrete-event simulation executive. It is not safe for
// concurrent use; all components of one simulated machine share one Kernel
// and run in a single goroutine, which is what makes runs deterministic.
// Distinct Kernels share nothing, so independent simulations may run on
// separate goroutines concurrently (the runner package relies on this).
//
// The pending-event queue is a calendar queue (R. Brown, "Calendar
// Queues", CACM 31(10), 1988) in three tiers, all holding indices into
// one event pool recycled through a free list:
//
//   - the ring: ringSize buckets of 256 ps covering the window after the
//     active bucket. A push appends the slot to its bucket's chunk list;
//     when a bucket becomes active it is gathered into the run and sorted
//     once, then popped from the front.
//   - the near heap: a 4-ary min-heap for events that land in or before
//     the active bucket (setup bursts, zero-delay schedules, late
//     cross-shard merges). A pop takes the smaller of its root and the
//     run's head.
//   - the far heap: a binary heap of events past the window, pulled into
//     the ring as the window advances.
//
// The run and the near heap order by one comparator over (timestamp,
// rank) keys (before), so the pop order is the same total order a single
// heap would produce. Once the pool, chunks and arrays have grown to the
// simulation's peak queue depth, scheduling and firing allocate nothing.
type Kernel struct {
	now     Time
	seq     uint64
	pool    []event
	skey    []heapKey // skey[slot] is a pending slot's ordering key
	free    int32     // 1 + first recycled pool slot (linked through seq), 0 if none
	stopped bool
	fired   uint64
	lastAt  Time // timestamp of the last executed event (unlike now, never forced forward by RunUntil)

	// Near heap: 4-ary min-heap of pool slots, rooted at heapRoot, with
	// keys[i] the ordering key of slot heap[i].
	heap []int32
	keys []heapKey

	// Active bucket cur (absolute bucket number at>>bucketShift): its
	// slots sorted into run and consumed from runPos.
	cur    int64
	run    []int32
	runPos int
	slots  []int32 // gather scratch

	// Ring: buckets cur+1..cur+ringSize-1, occ marking the non-empty ones.
	ring      [ringSize]bucket
	occ       [ringWords]uint64
	ringN     int     // slots held by the ring
	chunks    []int32 // chunk c holds slots chunks[c*chunkLen:(c+1)*chunkLen]
	chunkNext []int32 // next chunk of a bucket's list; 1 + next of the free list
	freeChunk int32   // 1 + head of the free chunk list, 0 if empty

	far []farEntry // binary min-heap by farLess: buckets >= cur+ringSize

	batch []Batched // DrainAt/StepBatch scratch, reused across batches

	// Lineage tie ordering (sharded execution; see BeginLineageOrder).
	lineage      bool
	setupSeq     uint64 // highest seq scheduled before BeginLineageOrder
	unrankedTies uint64 // same-time compares ordered by schedule sequence
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// EventsFired reports how many events have executed so far (useful for
// performance accounting in benchmarks).
func (k *Kernel) EventsFired() uint64 { return k.fired }

// UnrankedTies reports how many same-timestamp compares in lineage mode
// involved a runtime event without a Lineaged actor and so fell back to
// schedule order. That order is deterministic but only sequential-
// equivalent for Lineaged chains, so shard-invariant workloads keep it 0.
func (k *Kernel) UnrankedTies() uint64 { return k.unrankedTies }

// heapLen reports the number of events in the near heap (excluding padding).
func (k *Kernel) heapLen() int {
	if n := len(k.heap) - heapRoot; n > 0 {
		return n
	}
	return 0
}

// Pending reports the number of scheduled-but-unfired events.
func (k *Kernel) Pending() int {
	return k.heapLen() + len(k.run) - k.runPos + k.ringN + len(k.far)
}

// nextAt returns the timestamp of the earliest pending event and whether
// any event is pending. With the active run and the near heap both empty it
// activates the next bucket, so it may refill the run.
func (k *Kernel) nextAt() (Time, bool) {
	for {
		near := len(k.heap) > heapRoot
		if k.runPos < len(k.run) {
			at := k.skey[k.run[k.runPos]].at
			if near && k.keys[heapRoot].at < at {
				at = k.keys[heapRoot].at
			}
			return at, true
		}
		if near {
			return k.keys[heapRoot].at, true
		}
		if !k.advance() {
			return 0, false
		}
	}
}

// Lineaged is implemented by actors that carry their own event-history
// rank: the fire times of every past event of their causal chain (oldest
// first) plus a globally unique injection order. Kernels in lineage mode
// use it to break same-timestamp ties exactly as a single sequential
// kernel's schedule order would (see BeginLineageOrder).
type Lineaged interface {
	Actor
	// Lineage returns the chain of past fire times (oldest first) and the
	// setup order of the chain's injection event.
	Lineage() (hist []Time, inj uint64)
}

// rankOf returns the ordering rank of an event pushed now. In sequence
// mode it is the schedule sequence. In lineage mode setup events never
// reach here (they were pushed in sequence mode), and a runtime event's
// rank is the first step of tieBefore's newest-first history compare:
// rankEmpty for an empty history, rankHist|newest entry otherwise, and
// unranked for a closure or a non-Lineaged actor. Equal or unranked ranks
// at one timestamp defer to tieBefore. The rank stays valid only while the
// actor's history is unchanged, which the machine guarantees: an actor's
// history grows only inside its own firing or when it is scheduled anew.
func (k *Kernel) rankOf(e *event) uint64 {
	if !k.lineage {
		return k.seq
	}
	l, ok := e.actor.(Lineaged)
	if !ok {
		return unranked
	}
	hist, _ := l.Lineage()
	if len(hist) == 0 {
		return rankEmpty
	}
	return rankHist | uint64(hist[len(hist)-1])
}

// keyCmp orders two keys where the key alone decides: by timestamp, then
// by rank. It returns 0 when tieBefore must decide (equal timestamps with
// equal ranks or an unranked event).
func keyCmp(a, b heapKey) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.rank == b.rank || a.rank == unranked || b.rank == unranked {
		return 0
	}
	if a.rank < b.rank {
		return -1
	}
	return 1
}

// before is the kernel's one event order: true if the event in slot sa
// (key a) fires before the event in slot sb (key b).
func (k *Kernel) before(a heapKey, sa int32, b heapKey, sb int32) bool {
	if c := keyCmp(a, b); c != 0 {
		return c < 0
	}
	return k.tieBefore(sa, sb)
}

// tieBefore orders two same-timestamp events in lineage mode the way the
// equivalent sequential kernel would. In a sequential kernel, same-time
// events fire in schedule order, and an event's schedule position is its
// scheduler's execution position — recursively, until the chains reach
// setup-scheduled events, which all precede every runtime-scheduled event
// and order among themselves by setup sequence. Comparing the actors'
// fire-time histories newest-first implements exactly that recursion, so
// the order of any two events is a function of event content alone —
// independent of which shard kernel hosts them, in what order cross-shard
// merges inserted them, and of the shard count itself. The rank compare in
// keyCmp settles most ties on the newest entry; this walk runs only when
// the ranks are equal or one event is unranked.
func (k *Kernel) tieBefore(slotA, slotB int32) bool {
	qa, qb := k.pool[slotA].seq, k.pool[slotB].seq
	sa, sb := qa <= k.setupSeq, qb <= k.setupSeq
	if sa || sb {
		if sa != sb {
			// Setup events were all scheduled before any runtime event.
			return sa
		}
		// Both setup: local schedule order is the global setup order
		// restricted to this shard, which preserves relative order.
		return qa < qb
	}
	la, okA := k.pool[slotA].actor.(Lineaged)
	lb, okB := k.pool[slotB].actor.(Lineaged)
	if !okA || !okB {
		// Closures or unranked actors at runtime: schedule order is the
		// best available (deterministic, but only sequential-equivalent
		// for Lineaged chains), so the kernel counts these.
		k.unrankedTies++
		return qa < qb
	}
	ha, ia := la.Lineage()
	hb, ib := lb.Lineage()
	da, db := len(ha)-1, len(hb)-1
	for da >= 0 && db >= 0 {
		if ha[da] != hb[db] {
			return ha[da] < hb[db]
		}
		da--
		db--
	}
	if (da < 0) != (db < 0) {
		// The exhausted chain's next ancestor is its setup-scheduled
		// injection event, which precedes the other chain's runtime
		// ancestor at the same (tied) fire time.
		return da < 0
	}
	return ia < ib
}

// BeginLineageOrder switches the kernel to lineage tie ordering: events at
// equal timestamps compare by their actors' Lineage instead of schedule
// sequence. Call it after all setup events have been scheduled and before
// running; events already queued are treated as setup events. Sharded
// executions (ParallelExec) use this to make results independent of the
// shard count, not merely of goroutine interleaving.
func (k *Kernel) BeginLineageOrder() {
	k.lineage = true
	k.setupSeq = k.seq
}

// Reset returns the kernel to its just-constructed state while retaining
// the capacity of the pool and every queue tier, so a reused kernel
// schedules without heap allocations from the first event. It must not be
// called while Run is executing.
func (k *Kernel) Reset() {
	k.now, k.seq, k.lastAt = 0, 0, 0
	k.pool = k.pool[:0]
	k.skey = k.skey[:0]
	k.free = 0
	k.heap = k.heap[:0]
	k.keys = k.keys[:0]
	k.cur = 0
	k.run = k.run[:0]
	k.runPos = 0
	k.slots = k.slots[:0]
	k.ring = [ringSize]bucket{}
	k.occ = [ringWords]uint64{}
	k.ringN = 0
	k.chunks = k.chunks[:0]
	k.chunkNext = k.chunkNext[:0]
	k.freeChunk = 0
	k.far = k.far[:0]
	k.stopped = false
	k.fired = 0
	k.lineage = false
	k.setupSeq = 0
	k.unrankedTies = 0
}

// LastFired reports the timestamp of the most recently executed event.
// Unlike Now, it is never advanced by a RunUntil deadline, so after a
// windowed run it is the drain time a sequential Run would have returned.
func (k *Kernel) LastFired() Time { return k.lastAt }

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// it is always a modeling bug.
func (k *Kernel) At(at Time, fn Handler) {
	k.push(at, funcActor(fn))
}

// AtActor schedules a.Act() to run at absolute time at. Unlike At, no
// closure is involved: the two-word interface value is stored in the event
// pool directly, so the call is allocation-free once the pool has grown.
func (k *Kernel) AtActor(at Time, a Actor) {
	k.push(at, a)
}

func (k *Kernel) push(at Time, a Actor) {
	if at < k.now {
		panic("sim: event scheduled in the past")
	}
	k.seq++
	e := event{actor: a, seq: k.seq}
	var slot int32
	if f := k.free; f > 0 {
		slot = f - 1
		k.free = int32(k.pool[slot].seq)
	} else {
		k.pool = append(k.pool, event{})
		k.skey = append(k.skey, heapKey{})
		slot = int32(len(k.pool) - 1)
	}
	key := heapKey{at: at, rank: k.rankOf(&e)}
	k.pool[slot] = e
	k.skey[slot] = key
	switch b := int64(at >> bucketShift); {
	case b <= k.cur:
		k.nearPush(slot, key)
	case b < k.cur+ringSize:
		k.ringPush(slot, b)
	default:
		k.farPush(farEntry{at: at, slot: slot})
	}
}

// After schedules fn to run delay picoseconds from now.
func (k *Kernel) After(delay Time, fn Handler) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	k.At(k.now+delay, fn)
}

// AfterActor schedules a.Act() delay picoseconds from now (see AtActor).
func (k *Kernel) AfterActor(delay Time, a Actor) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	k.AtActor(k.now+delay, a)
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// pop removes the earliest pending event — the smaller of the run's head
// and the near heap's root, activating the next bucket when both are
// empty — and returns its callback, advancing the clock to its timestamp.
// It must not be called with no events pending.
func (k *Kernel) pop() Actor {
	for {
		near := len(k.heap) > heapRoot
		if k.runPos < len(k.run) {
			s := k.run[k.runPos]
			key := k.skey[s]
			if !near || !k.before(k.keys[heapRoot], k.heap[heapRoot], key, s) {
				k.runPos++
				return k.take(s, key.at)
			}
		}
		if near {
			slot, at := k.heap[heapRoot], k.keys[heapRoot].at
			k.nearPop()
			return k.take(slot, at)
		}
		k.advance()
	}
}

// take frees the popped slot, advances the clock to its timestamp and
// returns its callback.
func (k *Kernel) take(slot int32, at Time) Actor {
	e := k.pool[slot]
	if checkRanks && k.lineage {
		if r := k.skey[slot].rank; r >= rankEmpty && k.rankOf(&e) != r {
			panic("sim: a Lineaged actor's history changed while its event was pending")
		}
	}
	// Drop the references so the GC can collect closures and actors.
	k.pool[slot] = event{seq: uint64(k.free)}
	k.free = slot + 1
	k.now = at
	k.lastAt = at
	k.fired++
	return e.actor
}

// advance activates the next non-empty bucket: the nearest occupied ring
// bucket, or with the ring empty the far heap's earliest. It then pulls
// the far events the moved window now covers into the ring, and gathers
// and sorts the new active bucket into the run. It reports false when the
// ring and the far heap are both empty. Call it only with the run and the
// near heap empty.
func (k *Kernel) advance() bool {
	switch {
	case k.ringN > 0:
		k.cur = k.nextBucket()
	case len(k.far) > 0:
		k.cur = int64(k.far[0].at >> bucketShift)
	default:
		return false
	}
	for len(k.far) > 0 && int64(k.far[0].at>>bucketShift) < k.cur+ringSize {
		f := k.farPop()
		k.ringPush(f.slot, int64(f.at>>bucketShift))
	}
	k.gather()
	return true
}

// nextBucket returns the first occupied ring bucket after cur. The ring
// must not be empty.
func (k *Kernel) nextBucket() int64 {
	p := int((k.cur + 1) & ringMask)
	w := p >> 6
	for i := 0; i <= ringWords; i++ {
		wi := (w + i) % ringWords
		b := k.occ[wi]
		if i == 0 {
			b &= ^uint64(0) << (p & 63)
		}
		if b != 0 {
			idx := wi<<6 + bits.TrailingZeros64(b)
			return k.cur + 1 + int64((idx-p)&ringMask)
		}
	}
	panic("sim: ring count and occupancy disagree")
}

// ringPush appends slot to absolute bucket b's chunk list.
func (k *Kernel) ringPush(slot int32, b int64) {
	i := int(b & ringMask)
	bk := &k.ring[i]
	off := int(bk.n % chunkLen)
	if off == 0 {
		c := k.newChunk()
		if bk.n == 0 {
			bk.head = c
			k.occ[i>>6] |= 1 << (i & 63)
		} else {
			k.chunkNext[bk.tail] = c
		}
		bk.tail = c
	}
	k.chunks[int(bk.tail)*chunkLen+off] = slot
	bk.n++
	k.ringN++
}

// newChunk takes a chunk from the free list, growing the chunk store when
// it is empty.
func (k *Kernel) newChunk() int32 {
	if f := k.freeChunk; f > 0 {
		k.freeChunk = k.chunkNext[f-1]
		return f - 1
	}
	c := int32(len(k.chunkNext))
	k.chunkNext = append(k.chunkNext, 0)
	k.chunks = slices.Grow(k.chunks, chunkLen)[:len(k.chunks)+chunkLen]
	return c
}

// gather sorts the active bucket's slots into the run in firing order and
// returns its chunks to the free list. A stable counting sort by sub-bucket
// leaves only same-sub-bucket pairs to order; an insertion sort with the
// full comparator finishes (small buckets skip the counting). Same-time
// events mostly arrive in rank order (direct pushes in schedule order,
// after far-heap pulls in key order), so that pass is near linear; a
// crowded sub-bucket is sorted first.
func (k *Kernel) gather() {
	i := int(k.cur & ringMask)
	bk := k.ring[i]
	k.ring[i] = bucket{}
	k.occ[i>>6] &^= 1 << (i & 63)
	n := int(bk.n)
	k.ringN -= n
	var run []int32
	if n <= 16 {
		run = k.collect(bk, k.run[:0])
	} else {
		k.slots = k.collect(bk, k.slots[:0])
		run = slices.Grow(k.run[:0], n)[:n]
		k.countSort(run, k.slots)
	}
	for a := 1; a < n; a++ {
		s := run[a]
		key := k.skey[s]
		b := a
		for b > 0 && k.before(key, s, k.skey[run[b-1]], run[b-1]) {
			run[b] = run[b-1]
			b--
		}
		run[b] = s
	}
	k.run, k.runPos = run, 0
}

// collect appends bucket bk's slots to dst and frees its chunks.
func (k *Kernel) collect(bk bucket, dst []int32) []int32 {
	c := bk.head
	for left := int(bk.n); left > 0; left -= chunkLen {
		base := int(c) * chunkLen
		dst = append(dst, k.chunks[base:base+min(left, chunkLen)]...)
		next := k.chunkNext[c]
		k.chunkNext[c] = k.freeChunk
		k.freeChunk = c + 1
		c = next
	}
	return dst
}

// countSort places slots into run stably by sub-bucket, and sorts any
// crowded sub-bucket outright: a burst at one instant may hold many equal
// ranks in no useful order.
func (k *Kernel) countSort(run, slots []int32) {
	var cnt [subBuckets + 1]int32
	for _, s := range slots {
		cnt[int(k.skey[s].at>>subShift)&(subBuckets-1)+1]++
	}
	for j := 1; j <= subBuckets; j++ {
		cnt[j] += cnt[j-1]
	}
	for _, s := range slots {
		j := int(k.skey[s].at>>subShift) & (subBuckets - 1)
		run[cnt[j]] = s
		cnt[j]++
	}
	for j, start := 0, int32(0); j < subBuckets; j++ {
		if cnt[j]-start > 32 {
			slices.SortFunc(run[start:cnt[j]], func(a, b int32) int {
				switch {
				case a == b:
					return 0
				case k.before(k.skey[a], a, k.skey[b], b):
					return -1
				}
				return 1
			})
		}
		start = cnt[j]
	}
}

// near heap index arithmetic, rooted at heapRoot: children of i sit at
// 4i-8..4i-5 and the parent of c is c/4+2.

// nearPush inserts slot into the near heap.
func (k *Kernel) nearPush(slot int32, key heapKey) {
	if len(k.heap) == 0 {
		// Reserve the root padding (see heapRoot).
		k.heap = append(k.heap, 0, 0, 0)
		k.keys = append(k.keys, heapKey{}, heapKey{}, heapKey{})
	}
	k.heap = append(k.heap, slot)
	k.keys = append(k.keys, key)
	h, ks := k.heap, k.keys
	i := len(h) - 1
	for i > heapRoot {
		p := i/4 + 2
		if k.before(ks[p], h[p], key, slot) {
			break
		}
		h[i], ks[i] = h[p], ks[p]
		i = p
	}
	h[i], ks[i] = slot, key
}

// nearPop removes the near heap's root. It refills the root hole with the
// heap's last entry bottom-up: sink the hole to a leaf along the min-child
// path with no carried-key compares, then sift the carried entry back up
// from the leaf. Because the carried entry was a leaf, it nearly always
// belongs at the bottom, so the up-pass exits after one compare.
func (k *Kernel) nearPop() {
	last := len(k.heap) - 1
	slot, key := k.heap[last], k.keys[last]
	k.heap, k.keys = k.heap[:last], k.keys[:last]
	if last == heapRoot {
		return
	}
	h, ks := k.heap, k.keys
	n := len(h)
	i := heapRoot
	for {
		c := 4*i - 8
		if c >= n {
			break
		}
		end := min(c+4, n)
		m, mk := c, ks[c]
		for j := c + 1; j < end; j++ {
			if k.before(ks[j], h[j], mk, h[m]) {
				m, mk = j, ks[j]
			}
		}
		h[i], ks[i] = h[m], mk
		i = m
	}
	for i > heapRoot {
		p := i/4 + 2
		if k.before(ks[p], h[p], key, slot) {
			break
		}
		h[i], ks[i] = h[p], ks[p]
		i = p
	}
	h[i], ks[i] = slot, key
}

// farLess orders far-heap entries by timestamp, then by rank (keyCmp), so
// its pulls reach the ring mostly in firing order.
func (k *Kernel) farLess(a, b farEntry) bool {
	return a.at < b.at || (a.at == b.at && keyCmp(k.skey[a.slot], k.skey[b.slot]) < 0)
}

// farPush inserts e into the far heap.
func (k *Kernel) farPush(e farEntry) {
	k.far = append(k.far, e)
	f := k.far
	i := len(f) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.farLess(e, f[p]) {
			break
		}
		f[i] = f[p]
		i = p
	}
	f[i] = e
}

// farPop removes and returns the far heap's earliest entry, refilling the
// root bottom-up like nearPop.
func (k *Kernel) farPop() farEntry {
	f := k.far
	top := f[0]
	last := len(f) - 1
	e := f[last]
	f = f[:last]
	k.far = f
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && k.farLess(f[c+1], f[c]) {
			c++
		}
		f[i] = f[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !k.farLess(e, f[p]) {
			break
		}
		f[i] = f[p]
		i = p
	}
	f[i] = e
	return top
}

// step pops and fires the earliest event. It must not be called on an
// empty queue.
func (k *Kernel) step() {
	k.pop().Act()
}

// DrainAt pops every pending event sharing the earliest timestamp, in the
// exact order repeated step() calls would fire them, appends them to buf
// without executing anything, and advances the clock to that timestamp.
// The returned slice aliases buf's storage (pass buf[:0] to reuse a batch
// buffer across calls). It returns buf unchanged when no events are
// pending.
//
// Events scheduled *while a drained batch executes* at that same timestamp
// are not part of the batch; they form the next one — which StepBatch (and
// the Run/RunUntil loops) pick up by re-draining before moving the clock.
// Under sequence ordering this reproduces step() order exactly: a newly
// scheduled same-time event has a higher sequence than everything already
// drained, so step() would fire it last too. Under lineage ordering it is
// equivalent for every workload that schedules strictly forward in time
// (all machine latencies are positive); only a zero-delay self-schedule
// racing an undrained lineage peer could observe the batch boundary.
func (k *Kernel) DrainAt(buf []Batched) []Batched {
	t, ok := k.nextAt()
	if !ok {
		return buf
	}
	for {
		a := k.pop()
		if f, ok := a.(funcActor); ok {
			buf = append(buf, Batched{Fn: Handler(f)})
		} else {
			buf = append(buf, Batched{Actor: a})
		}
		if at, ok := k.nextAt(); !ok || at != t {
			return buf
		}
	}
}

// Batched is one event of a timestamp batch returned by DrainAt: exactly
// one of Fn or Actor is set.
type Batched struct {
	Fn    Handler
	Actor Actor
}

// Fire executes the batched event.
func (b Batched) Fire() {
	if b.Fn != nil {
		b.Fn()
	} else {
		b.Actor.Act()
	}
}

// StepBatch fires every pending event at the earliest timestamp — including
// events those firings schedule back at the same timestamp — and returns
// that timestamp with ok=true, or ok=false if nothing was pending. It is
// equivalent to calling step() until the earliest timestamp changes (see
// DrainAt for the exact ordering contract), while paying the batch's
// bookkeeping once instead of per event.
func (k *Kernel) StepBatch() (Time, bool) {
	t, ok := k.nextAt()
	if !ok {
		return 0, false
	}
	k.runBatchesAt(t)
	return t, true
}

// runBatchesAt drains and fires timestamp-t batches until no events at t
// remain (an executing batch may schedule follow-up work at t).
func (k *Kernel) runBatchesAt(t Time) {
	for at, ok := k.nextAt(); ok && at == t; at, ok = k.nextAt() {
		b := k.DrainAt(k.batch[:0])
		for i := range b {
			if b[i].Fn != nil {
				b[i].Fn()
			} else {
				b[i].Actor.Act()
			}
			b[i] = Batched{}
		}
		k.batch = b[:0]
	}
}

// Run executes events until the queue drains or Stop is called. It returns
// the time of the last executed event.
func (k *Kernel) Run() Time {
	k.stopped = false
	for k.Pending() > 0 && !k.stopped {
		k.step()
	}
	return k.now
}

// RunUntilBatch executes events with timestamps <= deadline like RunUntil,
// but fires each timestamp's events as drained batches (see StepBatch /
// DrainAt for the ordering contract): the window loop pays the peek and
// deadline check once per timestamp instead of once per event. ParallelExec
// windows run shard kernels through this.
func (k *Kernel) RunUntilBatch(deadline Time) bool {
	k.stopped = false
	for !k.stopped {
		at, ok := k.nextAt()
		if !ok {
			break
		}
		if at > deadline {
			k.now = deadline
			return false
		}
		k.runBatchesAt(at)
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.Pending() == 0
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. It returns true if the queue drained
// before the deadline.
func (k *Kernel) RunUntil(deadline Time) bool {
	k.stopped = false
	for !k.stopped {
		at, ok := k.nextAt()
		if !ok {
			break
		}
		if at > deadline {
			k.now = deadline
			return false
		}
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.Pending() == 0
}
