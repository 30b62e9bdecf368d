package balancer

import (
	"fmt"
	"math/bits"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// This file implements core.FlatBalancer for the paper's deterministic
// schemes. Bound state lives in flat arrays (one int32 rotor per node, one
// shared slot order) and DistributeRange processes whole node ranges in the
// engine's compressed (base, extra-token mask) representation with no
// per-node interface call. Every implementation is cross-checked against its
// per-node Distribute in flat_test.go — the engine's bit-identical guarantee
// extends to this path.

// divider performs floor division by a fixed positive divisor, using an
// arithmetic shift when the divisor is a power of two (the common d⁺ = 2d
// lazy configuration with d a power of two, e.g. hypercubes and the d=8
// expanders of the experiments). x >> shift is ⌊x/2^shift⌋ for negative x
// too, matching core.FloorShare.
type divider struct {
	by    int64
	shift uint
	pow2  bool
}

func newDivider(by int) divider {
	d := divider{by: int64(by)}
	if by > 0 && by&(by-1) == 0 {
		d.pow2 = true
		d.shift = uint(bits.TrailingZeros(uint(by)))
	}
	return d
}

// floor returns ⌊x/by⌋ with floor (not truncation) semantics.
func (d divider) floor(x int64) int64 {
	if d.pow2 {
		return x >> d.shift
	}
	return core.FloorShare(x, int(d.by))
}

// split returns (⌊x/by⌋, x mod by) for x ≥ 0.
func (d divider) split(x int64) (int64, int) {
	if d.pow2 {
		return x >> d.shift, int(x & (d.by - 1))
	}
	q := x / d.by
	return q, int(x - q*d.by)
}

// --- ROTOR-ROUTER -----------------------------------------------------------

// BindFlat implements core.FlatBalancer. Custom slot orders decline the fast
// path (they are the lower-bound constructions, not the hot experiments);
// the engine then falls back to Bind.
func (r *RotorRouter) BindFlat(b *graph.Balancing) core.RangeDistributor {
	if r.Order != nil {
		return nil
	}
	d, selfLoops := b.Degree(), b.SelfLoops()
	dplus := d + selfLoops
	if d >= 64 || dplus > 64 {
		return nil // excess masks need one bit per edge plus headroom
	}
	rr := &rotorRange{d: d, dplus: dplus, div: newDivider(dplus)}
	order := interleavedOrder(d, selfLoops)
	rr.rotor = make([]int32, b.N())
	if r.InitialRotor != nil {
		for u, p := range r.InitialRotor {
			if p < 0 || p >= dplus {
				panic(fmt.Sprintf("balancer: rotor-router node %d: initial rotor %d out of range [0,%d)", u, p, dplus))
			}
			rr.rotor[u] = int32(p)
		}
	}
	// Precompute, for every (rotor position, excess) pair, the bitmask of
	// original edges receiving an excess token. A walk of excess < d⁺
	// consecutive slots visits each slot at most once, so the per-edge extra
	// is 0/1 and the d⁺² masks capture the rotor-router exactly.
	rr.masks = make([]uint64, dplus*dplus)
	for pos := 0; pos < dplus; pos++ {
		for excess := 0; excess < dplus; excess++ {
			var m uint64
			for k := 0; k < excess; k++ {
				slot := order[(pos+k)%dplus]
				if slot < d {
					m |= 1 << uint(slot)
				}
			}
			rr.masks[pos*dplus+excess] = m
		}
	}
	return rr
}

// rotorRange is the flat-state rotor-router: rotor positions in one int32
// array, the excess distribution as a precomputed mask table.
type rotorRange struct {
	d, dplus int
	div      divider
	rotor    []int32
	masks    []uint64
}

// StateWords implements core.RangeState: the rotor positions.
func (rr *rotorRange) StateWords() []int32 { return rr.rotor }

// DistributeRange implements core.RangeDistributor; it mirrors
// rotorNode.Distribute with nil selfLoops (tokens directed at self-loop
// slots simply stay, counted into kept).
func (rr *rotorRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	d, dplus := int64(rr.d), rr.dplus
	masks := rr.masks
	for u := lo; u < hi; u++ {
		load := x[u]
		if load < 0 {
			// Rotor-router never creates negative load itself; if a hostile
			// initial vector contains one, hold position.
			bp[2*u] = 0
			bp[2*u+1] = 0
			kept[u] = load
			continue
		}
		base, excess := rr.div.split(load)
		pos := int(rr.rotor[u])
		m := masks[pos*dplus+excess]
		bp[2*u] = base
		bp[2*u+1] = int64(m)
		kept[u] = load - d*base - int64(bits.OnesCount64(m))
		if pos += excess; pos >= dplus {
			pos -= dplus
		}
		rr.rotor[u] = int32(pos)
	}
}

// --- SEND(⌊x/d⁺⌋) -----------------------------------------------------------

// BindFlat implements core.FlatBalancer.
func (SendFloor) BindFlat(b *graph.Balancing) core.RangeDistributor {
	return &sendFloorRange{d: int64(b.Degree()), div: newDivider(b.DegreePlus())}
}

type sendFloorRange struct {
	d   int64
	div divider
}

// StateWords implements core.RangeState (stateless).
func (s *sendFloorRange) StateWords() []int32 { return nil }

// DistributeRange implements core.RangeDistributor: every edge gets exactly
// the floor share, so the extra-token mask is always zero.
func (s *sendFloorRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	d := s.d
	for u := lo; u < hi; u++ {
		load := x[u]
		share := s.div.floor(load)
		bp[2*u] = share
		bp[2*u+1] = 0
		kept[u] = load - d*share
	}
}

// --- SEND([x/d⁺]) -----------------------------------------------------------

// BindFlat implements core.FlatBalancer.
func (SendRound) BindFlat(b *graph.Balancing) core.RangeDistributor {
	if b.DegreePlus() < 2*b.Degree() {
		panic(fmt.Sprintf("balancer: send-round needs d⁺ ≥ 2d to avoid sending more than the load (d=%d, d⁺=%d)",
			b.Degree(), b.DegreePlus()))
	}
	return &sendRoundRange{d: int64(b.Degree()), dplus: int64(b.DegreePlus()), div: newDivider(2 * b.DegreePlus())}
}

type sendRoundRange struct {
	d     int64
	dplus int64
	div   divider
}

// StateWords implements core.RangeState (stateless).
func (s *sendRoundRange) StateWords() []int32 { return nil }

// DistributeRange implements core.RangeDistributor: the nearest-ties-down
// share is ⌊(2x+d⁺−1)/(2d⁺)⌋, exactly as sendRoundNode computes it, sent
// uniformly over every edge.
func (s *sendRoundRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	d := s.d
	for u := lo; u < hi; u++ {
		load := x[u]
		share := s.div.floor(2*load + s.dplus - 1)
		bp[2*u] = share
		bp[2*u+1] = 0
		kept[u] = load - d*share
	}
}

// --- good s-balancer --------------------------------------------------------

// BindFlat implements core.FlatBalancer.
func (g GoodS) BindFlat(b *graph.Balancing) core.RangeDistributor {
	if g.S < 1 || g.S > b.SelfLoops() {
		panic(fmt.Sprintf("balancer: good s-balancer needs 1 ≤ s ≤ d°, got s=%d d°=%d", g.S, b.SelfLoops()))
	}
	if b.Degree() >= 64 {
		return nil
	}
	return &goodSRange{
		d:     b.Degree(),
		s:     g.S,
		slots: b.DegreePlus() - g.S,
		div:   newDivider(b.DegreePlus()),
		rotor: make([]int32, b.N()),
	}
}

// goodSRange is the flat-state good s-balancer; only the sends to original
// edges matter for the engine, so the preferred self-loops reduce to
// shrinking the excess that rotates over the non-preferred slots (originals
// first, then the ordinary self-loops).
type goodSRange struct {
	d, s, slots int
	div         divider
	rotor       []int32
}

// StateWords implements core.RangeState: the rotor positions.
func (gr *goodSRange) StateWords() []int32 { return gr.rotor }

// DistributeRange implements core.RangeDistributor.
func (gr *goodSRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	d := gr.d
	for u := lo; u < hi; u++ {
		load := x[u]
		if load < 0 {
			bp[2*u] = 0
			bp[2*u+1] = 0
			kept[u] = load
			continue
		}
		base, excess := gr.div.split(load)
		rest := excess - gr.s
		if rest < 0 {
			rest = 0
		}
		pos := int(gr.rotor[u])
		var m uint64
		for k := 0; k < rest; k++ {
			if pos < d {
				m |= 1 << uint(pos)
			}
			if pos++; pos == gr.slots {
				pos = 0
			}
		}
		gr.rotor[u] = int32(pos)
		bp[2*u] = base
		bp[2*u+1] = int64(m)
		kept[u] = load - int64(d)*base - int64(bits.OnesCount64(m))
	}
}

// --- biased rounding --------------------------------------------------------

// BindFlat implements core.FlatBalancer. The excess x mod d⁺ fills the
// original edges in index order before any self-loop, so the mask is the low
// min(x mod d⁺, d) bits and the rest of the excess stays on the self-loops.
func (BiasedRounding) BindFlat(b *graph.Balancing) core.RangeDistributor {
	if b.Degree() >= 64 {
		return nil
	}
	return &biasedRange{d: b.Degree(), div: newDivider(b.DegreePlus())}
}

type biasedRange struct {
	d   int
	div divider
}

// StateWords implements core.RangeState (stateless).
func (br *biasedRange) StateWords() []int32 { return nil }

// DistributeRange implements core.RangeDistributor; it mirrors
// biasedNode.Distribute with nil selfLoops. A negative load sends nothing.
func (br *biasedRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	d := br.d
	for u := lo; u < hi; u++ {
		load := x[u]
		if load < 0 {
			bp[2*u] = 0
			bp[2*u+1] = 0
			kept[u] = load
			continue
		}
		base, excess := br.div.split(load)
		extra := min(excess, d)
		bp[2*u] = base
		bp[2*u+1] = int64(uint64(1)<<uint(extra) - 1)
		kept[u] = load - int64(d)*base - int64(extra)
	}
}

var (
	_ core.FlatBalancer = (*RotorRouter)(nil)
	_ core.FlatBalancer = SendFloor{}
	_ core.FlatBalancer = SendRound{}
	_ core.FlatBalancer = GoodS{}
	_ core.FlatBalancer = BiasedRounding{}

	_ core.RangeState = (*rotorRange)(nil)
	_ core.RangeState = (*sendFloorRange)(nil)
	_ core.RangeState = (*sendRoundRange)(nil)
	_ core.RangeState = (*goodSRange)(nil)
	_ core.RangeState = (*biasedRange)(nil)
)
