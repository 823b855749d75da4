package md

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"anton3/internal/fixp"
	"anton3/internal/sim"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

func smallSystem(n int) *System {
	return NewWater(n, 300, sim.NewRand(42))
}

func TestBoxForAtoms(t *testing.T) {
	// 32751 atoms at water density: ~99 A box.
	box := BoxForAtoms(32751)
	if box < 95 || box > 103 {
		t.Fatalf("box = %.1f A, want ~99", box)
	}
}

func TestInitialTemperature(t *testing.T) {
	s := smallSystem(4096)
	temp := s.Temperature()
	if temp < 270 || temp > 330 {
		t.Fatalf("initial T = %.0f K, want ~300", temp)
	}
}

func TestInitialMomentumZero(t *testing.T) {
	s := smallSystem(2048)
	p := s.Momentum()
	if math.Abs(p.X)+math.Abs(p.Y)+math.Abs(p.Z) > 1e-9 {
		t.Fatalf("net momentum %v, want ~0", p)
	}
}

func TestMomentumConserved(t *testing.T) {
	s := smallSystem(512)
	s.Run(20)
	p := s.Momentum()
	if math.Abs(p.X)+math.Abs(p.Y)+math.Abs(p.Z) > 1e-9 {
		t.Fatalf("momentum drifted to %v", p)
	}
}

func TestEnergyConservation(t *testing.T) {
	// NVE drift over 200 steps must be a small fraction of kinetic energy.
	s := smallSystem(1000)
	// Brief equilibration to relax the lattice.
	for i := 0; i < 20; i++ {
		s.Step()
		s.Rescale(300, 0.5)
	}
	e0 := s.TotalEnergy()
	ke := s.KineticEnergy()
	s.Run(200)
	drift := math.Abs(s.TotalEnergy() - e0)
	if drift > 0.02*ke {
		t.Fatalf("energy drift %.3f kcal/mol (%.2f%% of KE) over 200 steps",
			drift, 100*drift/ke)
	}
}

func TestForcesSumToZero(t *testing.T) {
	s := smallSystem(512)
	var sum [3]float64
	for _, f := range s.Force {
		sum[0] += f.X
		sum[1] += f.Y
		sum[2] += f.Z
	}
	for _, c := range sum {
		if math.Abs(c) > 1e-8 {
			t.Fatalf("forces do not sum to zero: %v", sum)
		}
	}
}

func TestMinImageBounds(t *testing.T) {
	s := smallSystem(64)
	for i := 0; i < 50; i++ {
		a, b := s.Pos[i%64], s.Pos[(i*7+3)%64]
		d := MinImage(a, b, s.Box)
		if math.Abs(d.X) > s.Box/2+1e-9 || math.Abs(d.Y) > s.Box/2+1e-9 || math.Abs(d.Z) > s.Box/2+1e-9 {
			t.Fatalf("min image out of range: %v (box %f)", d, s.Box)
		}
	}
}

func TestPairCountReasonable(t *testing.T) {
	// Water-density LJ at 9 A cutoff: each atom sees ~100 neighbors, so
	// pairs ~ N*100/2.
	s := smallSystem(4096)
	pairs := s.PairCount()
	perAtom := 2 * float64(pairs) / float64(s.N)
	if perAtom < 70 || perAtom > 140 {
		t.Fatalf("neighbors per atom = %.0f, want ~100", perAtom)
	}
}

// refForces is the force loop ComputeForces replaced: head-insertion
// linked-list cells scanned over the same cell-pair list, with a per-pair
// MinImage. It is the reference for bit identity.
func refForces(s *System) (force []fixp.Vec, pot float64, pairs int) {
	c := s.cells
	heads := make([]int32, c.perSide*c.perSide*c.perSide)
	next := make([]int32, s.N)
	for i := range heads {
		heads[i] = -1
	}
	axis := func(x float64) int { return min(int(x/c.cellSize), c.perSide-1) }
	for i, p := range s.Pos {
		cell := axis(p.X) + c.perSide*(axis(p.Y)+c.perSide*axis(p.Z))
		next[i] = heads[cell]
		heads[cell] = int32(i)
	}
	force = make([]fixp.Vec, s.N)
	rc2 := Cutoff * Cutoff
	sr6c := pow6(Sigma * Sigma / rc2)
	shift := 4 * Epsilon * (sr6c*sr6c - sr6c)
	pair := func(i, j int32) {
		d := MinImage(s.Pos[i], s.Pos[j], s.Box)
		r2 := d.Norm2()
		if r2 >= rc2 || r2 == 0 {
			return
		}
		sr2 := Sigma * Sigma / r2
		sr6 := pow6(sr2)
		sr12 := sr6 * sr6
		fmag := 24 * Epsilon * (2*sr12 - sr6) / r2
		f := d.Scale(fmag)
		force[i] = force[i].Add(f)
		force[j] = force[j].Sub(f)
		pot += 4*Epsilon*(sr12-sr6) - shift
		pairs++
	}
	for _, cp := range c.pairs {
		for i := heads[cp.a]; i >= 0; i = next[i] {
			j := heads[cp.b]
			if cp.a == cp.b {
				j = next[i]
			}
			for ; j >= 0; j = next[j] {
				pair(i, j)
			}
		}
	}
	return force, pot, pairs
}

func TestForcesBitIdenticalToLinkedListScan(t *testing.T) {
	// perSide 2, 3, 4, 5, 6, 11, 13: the MinImage fallback, the
	// perSide == 4 edge of the shift argument, and production sizes.
	sizes := []int{512, 1000, 2048, 4096, 8000, 32751, 65000}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for _, n := range sizes {
		s := smallSystem(n)
		for step := 0; step <= 4; step++ {
			if step > 0 {
				s.Step()
			}
			force, pot, pairs := refForces(s)
			at := fmt.Sprintf("%d atoms (perSide %d) step %d", n, s.cells.perSide, step)
			if math.Float64bits(s.Potential) != math.Float64bits(pot) || s.Pairs != pairs {
				t.Fatalf("%s: potential %v pairs %d, reference %v %d", at, s.Potential, s.Pairs, pot, pairs)
			}
			for i, f := range force {
				g := s.Force[i]
				if math.Float64bits(g.X) != math.Float64bits(f.X) ||
					math.Float64bits(g.Y) != math.Float64bits(f.Y) ||
					math.Float64bits(g.Z) != math.Float64bits(f.Z) {
					t.Fatalf("%s: atom %d force %v, reference %v", at, i, g, f)
				}
			}
		}
	}
}

func TestPairsMatchesPairCount(t *testing.T) {
	for _, n := range []int{512, 4096} {
		s := smallSystem(n)
		for step := 0; step <= 3; step++ {
			if step > 0 {
				s.Step()
			}
			if got := s.PairCount(); s.Pairs != got {
				t.Fatalf("%d atoms step %d: Pairs %d, PairCount %d", n, step, s.Pairs, got)
			}
		}
	}
}

func TestComputeForcesAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	s := smallSystem(4096)
	s.Step()
	if n := testing.AllocsPerRun(5, s.ComputeForces); n != 0 {
		t.Fatalf("ComputeForces: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() { s.PairCount() }); n != 0 {
		t.Fatalf("PairCount: %.1f allocs/op, want 0", n)
	}
}

func TestNonFinitePositionPanics(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := smallSystem(512)
		s.Pos[17].Y = bad
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "md: atom 17 position ") || !strings.HasSuffix(msg, " not finite") {
					t.Fatalf("position %v: panic %q, want md: atom 17 position ... not finite", bad, msg)
				}
			}()
			s.ComputeForces()
		}()
	}
}

func TestNoOverlapsAfterDynamics(t *testing.T) {
	s := smallSystem(512)
	s.Run(50)
	rmin := s.Box
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			d := MinImage(s.Pos[i], s.Pos[j], s.Box)
			if r := math.Sqrt(d.Norm2()); r < rmin {
				rmin = r
			}
		}
	}
	if rmin < 0.6*Sigma {
		t.Fatalf("atoms overlapped: min distance %.2f A", rmin)
	}
}

func TestPositionsStayInBox(t *testing.T) {
	s := smallSystem(512)
	s.Run(30)
	for i, p := range s.Pos {
		if p.X < 0 || p.X >= s.Box || p.Y < 0 || p.Y >= s.Box || p.Z < 0 || p.Z >= s.Box {
			t.Fatalf("atom %d escaped the box: %v", i, p)
		}
	}
}

func TestRescalePullsTemperature(t *testing.T) {
	s := smallSystem(512)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(2) // heat to ~4x
	}
	for i := 0; i < 30; i++ {
		s.Rescale(300, 0.5)
	}
	if temp := s.Temperature(); temp < 250 || temp > 350 {
		t.Fatalf("rescale failed: T = %.0f", temp)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := NewWater(256, 300, sim.NewRand(7))
	b := NewWater(256, 300, sim.NewRand(7))
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			t.Fatal("same seed built different systems")
		}
	}
}

// --- Decomposition tests ---

func TestHomeNodePartition(t *testing.T) {
	s := smallSystem(4096)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	buckets := d.Assign(s.Pos)
	total := 0
	for _, b := range buckets {
		total += len(b)
		// Roughly equal split (lattice + jitter): each of 8 nodes ~512.
		if len(b) < 256 || len(b) > 1024 {
			t.Fatalf("unbalanced bucket: %d", len(b))
		}
	}
	if total != s.N {
		t.Fatalf("partition lost atoms: %d of %d", total, s.N)
	}
}

func TestDecompositionValidatesSlabWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("slab thinner than cutoff should panic")
		}
	}()
	NewDecomposition(topo.Shape{X: 8, Y: 1, Z: 1}, 40) // 5 A slabs
}

func TestExportTargetsCoverInteractions(t *testing.T) {
	// Completeness: for every in-cutoff pair with different homes, each
	// atom must be exported to the other's home node.
	s := smallSystem(2048)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	rc2 := Cutoff * Cutoff
	var scratch []topo.Coord
	for i := 0; i < s.N; i += 7 { // sample
		hi := d.HomeNode(s.Pos[i])
		for j := 0; j < s.N; j++ {
			if i == j {
				continue
			}
			dd := MinImage(s.Pos[i], s.Pos[j], s.Box)
			if dd.Norm2() >= rc2 {
				continue
			}
			hj := d.HomeNode(s.Pos[j])
			if hi == hj {
				continue
			}
			scratch = d.ExportTargets(s.Pos[i], hi, scratch)
			found := false
			for _, tgt := range scratch {
				if tgt == hj {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("atom %d (home %v) interacts with %d (home %v) but is not exported there",
					i, hi, j, hj)
			}
		}
	}
}

func TestDistributedForcesMatchGolden(t *testing.T) {
	s := smallSystem(2048)
	s.Run(5)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	dist := DistributedForces(s, d)
	for i := range dist {
		diff := dist[i].Sub(s.Force[i])
		if math.Abs(diff.X)+math.Abs(diff.Y)+math.Abs(diff.Z) > 1e-7 {
			t.Fatalf("atom %d: distributed %v != golden %v", i, dist[i], s.Force[i])
		}
	}
}

func TestMulticastEdgesDeduped(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	home := topo.Coord{}
	targets := []topo.Coord{
		{X: 1}, {Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1, Z: 1},
	}
	edges := MulticastEdges(shape, home, targets, true, nil)
	seen := map[ChannelEdge]bool{}
	for _, e := range edges {
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
	// XYZ tree: (0,0,0)-X->(1,0,0); (0,0,0)-Y->(0,1,0); (1,0,0)-Y->(1,1,0);
	// (1,1,0)-Z->(1,1,1): 4 edges.
	if len(edges) != 4 {
		t.Fatalf("tree has %d edges, want 4: %v", len(edges), edges)
	}
}

func TestRelativeFixedSmall(t *testing.T) {
	// Positions relative to the home box corner must fit well under 2^26
	// for the systems we simulate, giving INZ leading zeros to remove.
	s := smallSystem(4096)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	for i, p := range s.Pos {
		home := d.HomeNode(p)
		f := d.RelativeFixed(p, home)
		for c := 0; c < 3; c++ {
			v := f.Coord(c)
			if v < 0 || v >= 1<<26 {
				t.Fatalf("atom %d relative coord %d out of range", i, v)
			}
		}
	}
}

func TestPerStepDisplacementFitsPcache(t *testing.T) {
	// The fixed-point per-step displacement must fit the particle cache's
	// 12-bit difference storage for typical thermal motion.
	s := smallSystem(512)
	s.Run(5)
	maxDelta := 0.0
	for _, v := range s.Vel {
		d := math.Sqrt(v.Norm2()) * DT
		if d > maxDelta {
			maxDelta = d
		}
	}
	units := maxDelta * (1 << 16)
	if units >= 2048 {
		t.Fatalf("per-step displacement %.0f units overflows 12-bit D1", units)
	}
}

func BenchmarkForces32k(b *testing.B) {
	s := NewWater(32768, 300, sim.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeForces()
	}
}

func BenchmarkStep4k(b *testing.B) {
	s := NewWater(4096, 300, sim.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
