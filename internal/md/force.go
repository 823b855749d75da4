package md

// ComputeForces evaluates the range-limited pairwise forces (truncated,
// shifted Lennard-Jones) into s.Force, s.Potential and s.Pairs. This is the
// computation the PPIMs perform in hardware; the golden model here both
// drives the traffic generators and validates the parallel decomposition.
func (s *System) ComputeForces() {
	c := s.cells
	c.build(s.Pos)
	clear(s.Force)

	rc2 := Cutoff * Cutoff
	// Energy shift so U(rc) = 0 (keeps NVE drift small with truncation).
	sr6c := pow6(Sigma * Sigma / rc2)
	shift := 4 * Epsilon * (sr6c*sr6c - sr6c)

	pos, force, idx, minImage := s.Pos, s.Force, c.idx, c.minImage
	pot, pairs := 0.0, 0
	for p := range c.pairs {
		cp := &c.pairs[p]
		sh := c.shift(cp)
		a0, a1 := c.start[cp.a], c.start[cp.a+1]
		b0, b1 := c.start[cp.b], c.start[cp.b+1]
		for ai := a0; ai < a1; ai++ {
			if cp.a == cp.b {
				b0 = ai + 1 // self cell: each pair once
			}
			i := idx[ai]
			pi, fi := pos[i], force[i]
			for _, j := range idx[b0:b1] {
				pj := pos[j]
				d := pi.Sub(pj).Sub(sh)
				if minImage {
					d = MinImage(pi, pj, s.Box)
				}
				r2 := d.Norm2()
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				sr2 := Sigma * Sigma / r2
				sr6 := pow6(sr2)
				sr12 := sr6 * sr6
				// F = 24 eps (2 sr12 - sr6) / r^2 * d
				fmag := 24 * Epsilon * (2*sr12 - sr6) / r2
				f := d.Scale(fmag)
				fi = fi.Add(f)
				force[j] = force[j].Sub(f)
				pot += 4*Epsilon*(sr12-sr6) - shift
				pairs++
			}
			force[i] = fi
		}
	}
	s.Potential, s.Pairs = pot, pairs
}

func pow6(x float64) float64 { return x * x * x }

// PairCount rescans the current positions and returns the number of
// in-cutoff pairs, the quantity that sizes PPIM work in the timestep model.
// Right after ComputeForces (or Step) it equals s.Pairs.
func (s *System) PairCount() int {
	c := s.cells
	c.build(s.Pos)
	rc2 := Cutoff * Cutoff
	count := 0
	for p := range c.pairs {
		cp := &c.pairs[p]
		sh := c.shift(cp)
		a0, a1 := c.start[cp.a], c.start[cp.a+1]
		b0, b1 := c.start[cp.b], c.start[cp.b+1]
		for ai := a0; ai < a1; ai++ {
			if cp.a == cp.b {
				b0 = ai + 1
			}
			pi := s.Pos[c.idx[ai]]
			for _, j := range c.idx[b0:b1] {
				pj := s.Pos[j]
				d := pi.Sub(pj).Sub(sh)
				if c.minImage {
					d = MinImage(pi, pj, s.Box)
				}
				if r2 := d.Norm2(); r2 < rc2 && r2 > 0 {
					count++
				}
			}
		}
	}
	return count
}
