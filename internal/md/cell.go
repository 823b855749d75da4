package md

import (
	"fmt"
	"math"

	"anton3/internal/fixp"
)

// cellList is a standard linked-cell neighbor structure: the box is divided
// into cells no smaller than the cutoff, so all interacting pairs lie in
// the same or adjacent cells (with periodic wraparound). The cell-pair scan
// list is precomputed once with the half-shell convention, so each pair of
// cells is visited exactly once per force evaluation.
//
// Atoms are bucketed by a counting sort into one flat index: the atoms of
// cell k are idx[start[k]:start[k+1]], in descending atom order.
type cellList struct {
	box      float64
	perSide  int
	cellSize float64
	// minImage selects the per-pair MinImage fallback: below four cells
	// per side the exactness argument at cellPair does not hold.
	minImage bool
	start    []int32 // per-cell offsets into idx, one extra at the end
	idx      []int32 // atom indices sorted by cell
	pairs    []cellPair
}

// cellPair is one entry of the scan list. k ∈ {-1,0,1} per dimension
// names the periodic image of cell b that neighbors cell a: it lies at b's
// positions plus shift = box·k, so a-b's minimum-image displacement is
// (pa - pb) - shift.
//
// With at least four cells per side that shift equals MinImage's
// box·Round(d/box) bit for bit for every pair that can be in cutoff:
// atoms of adjacent cells are less than 2·cellSize ≤ box/2 apart, so the
// rounding always picks the neighboring image. A pair whose image could
// differ is at least 2·Cutoff apart along that axis and is rejected
// either way.
type cellPair struct {
	a, b int32
	k    [3]int8
}

// shift returns the cell pair's image shift box·k.
func (c *cellList) shift(cp *cellPair) fixp.Vec {
	return fixp.Vec{X: c.box * float64(cp.k[0]), Y: c.box * float64(cp.k[1]), Z: c.box * float64(cp.k[2])}
}

func newCellList(box, cutoff float64) *cellList {
	perSide := int(box / cutoff)
	if perSide < 1 {
		perSide = 1
	}
	c := &cellList{
		box:      box,
		perSide:  perSide,
		cellSize: box / float64(perSide),
		minImage: perSide < 4,
		start:    make([]int32, perSide*perSide*perSide+1),
	}
	c.buildPairs()
	return c
}

func (c *cellList) buildPairs() {
	n := c.perSide
	// Half shell: 13 of the 26 neighbor offsets; the self pair is (a,a).
	offsets := [][3]int{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1},
		{0, 1, 1}, {0, 1, -1},
		{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
	}
	// wrap maps an unwrapped cell coordinate into [0,n) and returns the
	// image it crossed into.
	wrap := func(u int) (int, int8) {
		w := (u%n + n) % n
		return w, int8((u - w) / n)
	}
	idx := func(x, y, z int) int32 { return int32(x + n*(y+n*z)) }
	seen := make(map[[2]int32]bool)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				a := idx(x, y, z)
				c.pairs = append(c.pairs, cellPair{a: a, b: a})
				for _, o := range offsets {
					bx, kx := wrap(x + o[0])
					by, ky := wrap(y + o[1])
					bz, kz := wrap(z + o[2])
					b := idx(bx, by, bz)
					if a == b {
						continue // tiny boxes: offset wraps onto self
					}
					lo, hi := a, b
					if lo > hi {
						lo, hi = hi, lo
					}
					if seen[[2]int32{lo, hi}] {
						continue // tiny boxes: two offsets, one cell
					}
					seen[[2]int32{lo, hi}] = true
					c.pairs = append(c.pairs, cellPair{a: a, b: b, k: [3]int8{kx, ky, kz}})
				}
			}
		}
	}
}

func (c *cellList) cellOf(i int, p fixp.Vec) int {
	return c.axis(i, p, p.X) + c.perSide*(c.axis(i, p, p.Y)+c.perSide*c.axis(i, p, p.Z))
}

// axis returns the cell coordinate of x, clamped to the box (positions
// exactly at Box wrap to 0 but can round up to Box).
func (c *cellList) axis(i int, p fixp.Vec, x float64) int {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("md: atom %d position %v not finite", i, p))
	}
	f := x / c.cellSize
	if f >= float64(c.perSide) {
		return c.perSide - 1
	}
	if f < 0 {
		return 0
	}
	return int(f)
}

// build (re)assigns all atoms to cells by a counting sort. Filling each
// cell from its end in ascending atom order leaves the atoms of a cell in
// descending order, the order a head-insertion linked list visits them.
func (c *cellList) build(pos []fixp.Vec) {
	if len(c.idx) != len(pos) {
		c.idx = make([]int32, len(pos))
	}
	clear(c.start)
	for i, p := range pos {
		c.start[c.cellOf(i, p)]++
	}
	for k := 1; k < len(c.start); k++ {
		c.start[k] += c.start[k-1]
	}
	// start[k] is now the end of cell k; decrementing it per atom leaves
	// it at the cell's beginning.
	for i, p := range pos {
		k := c.cellOf(i, p)
		c.start[k]--
		c.idx[c.start[k]] = int32(i)
	}
}
