package core

// Potential functions of Section 3. For a threshold parameter c and the
// balancing degree d⁺,
//
//	φ_t(c)  = Σ_v max{x_t(v) − c·d⁺, 0}       (tokens above height c·d⁺)
//	φ′_t(c) = Σ_v max{c·d⁺ + s − x_t(v), 0}   (gaps below height c·d⁺ + s)
//
// Lemma 3.5 (resp. 3.7) shows φ (resp. φ′) is non-increasing under any good
// s-balancer; the proof of Theorem 3.3 drives them to zero phase by phase.

// Phi evaluates φ(c) on the load vector x for balancing degree dplus.
func Phi(x []int64, c int64, dplus int) int64 {
	threshold := c * int64(dplus)
	var sum int64
	for _, v := range x {
		if v > threshold {
			sum += v - threshold
		}
	}
	return sum
}

// PhiPrime evaluates φ′(c) on the load vector x for balancing degree dplus
// and self-preference parameter s.
func PhiPrime(x []int64, c int64, dplus, s int) int64 {
	threshold := c*int64(dplus) + int64(s)
	var sum int64
	for _, v := range x {
		if v < threshold {
			sum += threshold - v
		}
	}
	return sum
}

// PhiDrop returns Lemma 3.5's guaranteed one-step drop Δ_t(c, u) for a node
// that moved from load prev to load cur, with self-preference parameter s:
//
//	Δ = min{prev, c·d⁺+s} − max{cur, c·d⁺}  if prev > cur, prev > c·d⁺,
//	                                        and cur < c·d⁺ + s;
//	Δ = 0 otherwise.
func PhiDrop(prev, cur, c int64, dplus, s int) int64 {
	t := c * int64(dplus)
	if prev <= cur || prev <= t || cur >= t+int64(s) {
		return 0
	}
	hi := prev
	if t+int64(s) < hi {
		hi = t + int64(s)
	}
	lo := cur
	if t > lo {
		lo = t
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// PhiPrimeDrop returns Lemma 3.7's guaranteed one-step drop Δ′_t(c, u):
//
//	Δ′ = min{cur, c·d⁺+s} − max{prev, c·d⁺}  if prev < cur, prev < c·d⁺+s,
//	                                         and cur > c·d⁺;
//	Δ′ = 0 otherwise.
func PhiPrimeDrop(prev, cur, c int64, dplus, s int) int64 {
	t := c * int64(dplus)
	if prev >= cur || prev >= t+int64(s) || cur <= t {
		return 0
	}
	hi := cur
	if t+int64(s) < hi {
		hi = t + int64(s)
	}
	lo := prev
	if t > lo {
		lo = t
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// PotentialTracker watches φ(c) and φ′(c) for a set of thresholds across a
// run and records any monotonicity violation; tests use it to validate
// Lemmas 3.5 and 3.7 empirically for good s-balancers.
type PotentialTracker struct {
	// Cs are the thresholds c to track.
	Cs []int64
	// S is the balancer's self-preference parameter.
	S int

	prevPhi      []int64
	prevPhiPrime []int64
	seen         bool

	// Violations counts observed increases of any tracked potential.
	Violations int
	// TotalPhiDrop accumulates Σ_t max{0, φ_{t-1}(c0) − φ_t(c0)} for the
	// first threshold, a useful progress signal in experiments.
	TotalPhiDrop int64
}

// NewPotentialTracker tracks φ(c)/φ′(c) for every c in cs under
// self-preference parameter s.
func NewPotentialTracker(s int, cs ...int64) *PotentialTracker {
	return &PotentialTracker{Cs: append([]int64(nil), cs...), S: s}
}

// Requires implements Auditor.
func (p *PotentialTracker) Requires() Requirements { return Requirements{} }

// ObserveDelta implements DeltaObserver: a between-round injection moves the
// potential baseline, so the next round's monotonicity comparison re-latches
// from the post-injection vector instead of counting the injected jump as a
// balancer violation (Lemmas 3.5/3.7 bound what a *round* may do to φ, not
// what the adversary does between rounds).
func (p *PotentialTracker) ObserveDelta(e *Engine, _ []int64) {
	if !p.seen {
		return // first Observe latches from its own prevLoads
	}
	dplus := e.Balancing().DegreePlus()
	loads := e.Loads()
	for i, c := range p.Cs {
		p.prevPhi[i] = Phi(loads, c, dplus)
		p.prevPhiPrime[i] = PhiPrime(loads, c, dplus, p.S)
	}
}

// Observe implements Auditor. It never fails the run; violations are counted
// so property tests can assert on them.
func (p *PotentialTracker) Observe(e *Engine, prevLoads []int64, _, _ [][]int64) error {
	dplus := e.Balancing().DegreePlus()
	cur := e.Loads()
	if !p.seen {
		p.prevPhi = make([]int64, len(p.Cs))
		p.prevPhiPrime = make([]int64, len(p.Cs))
		for i, c := range p.Cs {
			p.prevPhi[i] = Phi(prevLoads, c, dplus)
			p.prevPhiPrime[i] = PhiPrime(prevLoads, c, dplus, p.S)
		}
		p.seen = true
	}
	for i, c := range p.Cs {
		ph := Phi(cur, c, dplus)
		pp := PhiPrime(cur, c, dplus, p.S)
		if ph > p.prevPhi[i] || pp > p.prevPhiPrime[i] {
			p.Violations++
		}
		if i == 0 && ph < p.prevPhi[i] {
			p.TotalPhiDrop += p.prevPhi[i] - ph
		}
		p.prevPhi[i] = ph
		p.prevPhiPrime[i] = pp
	}
	return nil
}
