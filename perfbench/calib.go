package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The measurement host (a 2-vCPU KVM guest on an Intel Xeon) is shared:
// neighbours' cache and memory traffic slow the simulator by up to 2x,
// drifting over tens of seconds, with no steal time visible to the guest. A fixed reference kernel, interleaved
// with the operations, sees the same drift, so host times are rescaled
// by refNominal over the pass's median reference time: a time reads as it
// would at the speed where the kernel takes refNominal.
//
// The kernel is frozen here, independent of the simulator's code, so a
// change to the simulator never changes the yardstick. It mimics the
// simulator's mix: a binary heap of event times, a random read-modify-
// write into a table, and a divide and round. The table is as large as a
// shared last-level cache slice, so neighbours' traffic slows the kernel
// the way it slows the simulator; against 8x8x8 netsweep points over four
// minutes on that host, a 16 MiB table cut the spread of 30-second medians
// from 25% to 4%, where a 512 KiB one only reached 12%. The table is read
// through before each timed run, so the kernel's time does not depend on
// what the simulator left in the caches.
const (
	refNominal = 10 * time.Millisecond // about the kernel's time on a quiet measurement host
	refEvery   = 100 * time.Millisecond
	refEvents  = 60000
	refTable   = 1 << 21 // float64s: 16 MiB
	refHeap    = 1 << 10
	lineFloats = 8 // float64s per 64-byte cache line
)

type refKernel struct {
	table []float64
	heap  []uint64
	sink  float64
}

// newRefKernel maps the table outside the Go heap: 16 MiB of live heap
// would raise the collector's heap goal and thin out the simulator's
// garbage collections.
func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refTable*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel table: %w", err)
	}
	table := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), refTable)
	return &refKernel{table: table, heap: make([]uint64, 0, refHeap+1)}, nil
}

// run executes the kernel once and returns its host time.
func (r *refKernel) run() time.Duration {
	for i := 0; i < len(r.table); i += lineFloats {
		r.sink += r.table[i]
	}
	t := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	r.heap = r.heap[:0]
	for i := 0; i < refHeap; i++ {
		r.push(next() >> 20)
	}
	acc := 0.0
	for i := 0; i < refEvents; i++ {
		k := r.pop()
		j := next() & (refTable - 1)
		v := r.table[j]
		acc += math.Round((v - float64(k&1023)) / 7.3)
		r.table[j] = v + 1
		r.push(k + x%4096)
	}
	r.sink += acc
	return time.Since(t)
}

func (r *refKernel) push(k uint64) {
	h := append(r.heap, k)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	r.heap = h
}

func (r *refKernel) pop() uint64 {
	h := r.heap
	k := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if c := l + 1; c < n && h[c] < h[l] {
			l = c
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	r.heap = h
	return k
}
