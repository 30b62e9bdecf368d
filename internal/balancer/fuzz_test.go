package balancer

import (
	"testing"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// FuzzRotorDistribute checks the closed-form rotor distribution against the
// token-by-token reference on arbitrary loads and rotor offsets, for several
// slot layouts.
func FuzzRotorDistribute(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(2))
	f.Add(uint16(97), uint8(3), uint8(0))
	f.Add(uint16(1023), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, loadRaw uint16, rotorRaw, loopsRaw uint8) {
		loops := int(loopsRaw % 5)
		d := 3
		g := graph.Cycle(8)
		_ = g
		// Build a 3-regular host: GP(8,3) gives d = 3 on 16 nodes.
		host := graph.GeneralizedPetersen(8, 3)
		b := graph.WithLoops(host, loops)
		dplus := d + loops
		rotor := int(rotorRaw) % dplus
		load := int64(loadRaw)

		rotors := make([]int, host.N())
		rotors[0] = rotor
		rr := &RotorRouter{InitialRotor: rotors}
		nodes := rr.Bind(b)
		sends := make([]int64, d)
		selfLoops := make([]int64, loops)
		nodes[0].Distribute(load, sends, selfLoops)

		wantSends, wantLoops, _ := referenceRotor(interleavedOrder(d, loops), rotor, load, d)
		for i := range sends {
			if sends[i] != wantSends[i] {
				t.Fatalf("edge %d: %d vs reference %d (load=%d rotor=%d loops=%d)",
					i, sends[i], wantSends[i], load, rotor, loops)
			}
		}
		for j := range selfLoops {
			if selfLoops[j] != wantLoops[j] {
				t.Fatalf("loop %d: %d vs reference %d", j, selfLoops[j], wantLoops[j])
			}
		}
	})
}

// FuzzGoodSRoundFair checks Def 3.1's conditions hold for arbitrary loads
// under the canonical good s-balancer.
func FuzzGoodSRoundFair(f *testing.F) {
	f.Add(uint32(100), uint8(1))
	f.Add(uint32(65537), uint8(3))
	f.Fuzz(func(t *testing.T, loadRaw uint32, sRaw uint8) {
		b := graph.WithLoops(graph.Cycle(8), 4) // d = 2, d° = 4, d⁺ = 6
		s := int(sRaw%4) + 1
		load := int64(loadRaw % (1 << 20))
		nodes := NewGoodS(s).Bind(b)
		sends := make([]int64, 2)
		loops := make([]int64, 4)
		nodes[0].Distribute(load, sends, loops)

		floor := load / 6
		ceil := floor
		if load%6 != 0 {
			ceil++
		}
		var sum int64
		ceilLoops := 0
		for _, v := range sends {
			if v < floor || v > ceil {
				t.Fatalf("send %d outside {%d,%d}", v, floor, ceil)
			}
			sum += v
		}
		for _, v := range loops {
			if v < floor || v > ceil {
				t.Fatalf("loop %d outside {%d,%d}", v, floor, ceil)
			}
			if v == ceil && ceil > floor {
				ceilLoops++
			}
			sum += v
		}
		if sum != load {
			t.Fatalf("distributed %d of %d", sum, load)
		}
		excess := load - floor*6
		want := int64(s)
		if excess < want {
			want = excess
		}
		if int64(ceilLoops) < want {
			t.Fatalf("only %d self-loops got the ceiling, need %d (load=%d s=%d)",
				ceilLoops, want, load, s)
		}
	})
}

// FuzzFlatMatchesPerNode cross-checks every FlatBalancer's DistributeRange
// against its per-node Distribute on fuzzed degrees, self-loop counts, graph
// seeds and loads, over several rounds so rotor state advances too, and
// holds every mask to core.RangeDistributor's contract that its bits lie
// below d (checkFlatRound). algoIn picks send-floor, send-round,
// rotor-router, good-s or biased rounding — every FlatBalancer in this
// package; the seed corpus under testdata/fuzz covers each of them.
func FuzzFlatMatchesPerNode(f *testing.F) {
	f.Fuzz(func(t *testing.T, algoIn, dIn, loopsIn uint8, seed int64, loads []byte) {
		const n = 18
		d := 2 + int(dIn)%8 // 2..9; n is even, so n·d is too
		algo, loops, negative := fuzzScheme(algoIn, d, int(loopsIn)%64, seed)
		b := graph.WithLoops(graph.RandomRegular(n, d, seed), loops)
		rd := algo.(core.FlatBalancer).BindFlat(b)
		if rd == nil {
			return // a configuration the flat path declines (rotor-router with d⁺ > 64)
		}
		nodes := algo.Bind(b)
		x := make([]int64, n)
		bp := make([]int64, 2*n)
		kept := make([]int64, n)
		sends := make([]int64, d)
		for round := 0; round < 4; round++ {
			for u := range x {
				x[u] = fuzzLoad(loads, round*n+u, negative)
			}
			checkFlatRound(t, algo.Name(), round, rd, nodes, x, bp, kept, sends)
		}
	})
}

// fuzzScheme returns the flat scheme algoIn picks — send-floor, send-round,
// rotor-router, good-s or biased rounding — with loops raised to what it
// needs, and whether it accepts negative loads.
func fuzzScheme(algoIn uint8, d, loops int, seed int64) (core.Balancer, int, bool) {
	switch algoIn % 5 {
	case 0:
		return NewSendFloor(), loops, true
	case 1:
		return NewSendRound(), max(loops, d), false // send-round needs d⁺ ≥ 2d
	case 2:
		return NewRotorRouter(), loops, true
	case 3:
		loops = max(loops, 1) // good-s needs 1 ≤ s ≤ d°
		return NewGoodS(1 + int(uint64(seed)%uint64(loops))), loops, true
	default:
		return NewBiasedRounding(), loops, true
	}
}

// FuzzPushMatchesPerNode holds the serial engine's compressed path — the
// flat distributor's (base, mask) pairs pushed through the engine's mask
// decoder — to the per-node engine, round by round, on fuzzed degrees
// d = 1–63 (every decoder row shape and tail length), self-loop counts,
// graph seeds and loads. Each load is a fuzzed common offset plus the node's
// own fuzzed deviation, and the engines run pushRounds rounds, so most
// nodes of a late round — and of an early one when the deviations are
// small — share the base the push shifts every send by, and walk only
// their mask bits. algoIn picks the scheme as in FuzzFlatMatchesPerNode;
// the seed corpus under testdata/fuzz covers each of them.
func FuzzPushMatchesPerNode(f *testing.F) {
	const pushRounds = 32
	f.Fuzz(func(t *testing.T, algoIn, dIn, loopsIn uint8, seed int64, loads []byte, offset int32) {
		d := 1 + int(dIn)%63
		// d⁺ ≤ 64 keeps the rotor-router flat.
		algo, loops, negative := fuzzScheme(algoIn, d, int(loopsIn)%(65-d), seed)
		g := graph.Complete(2) // the only connected 1-regular graph
		if d > 1 {
			g = graph.RandomRegular(2*d+2, d, seed) // 2d+2 is even, so n·d is too
		}
		b := graph.WithLoops(g, loops)
		level := int64(offset)
		if level < 0 && !negative {
			level = -level
		}
		x1 := make([]int64, b.N())
		for u := range x1 {
			x1[u] = level + fuzzLoad(loads, u, negative)
		}
		flat := core.MustEngine(b, algo, x1)
		// Embedding only the Balancer interface hides BindFlat, so this
		// engine binds per-node balancers and pushes per-arc sends.
		perNode := core.MustEngine(b, struct{ core.Balancer }{algo}, x1)
		for round := 1; round <= pushRounds; round++ {
			if err := flat.Step(); err != nil {
				t.Fatal(err)
			}
			if err := perNode.Step(); err != nil {
				t.Fatal(err)
			}
			for u, want := range perNode.Loads() {
				if got := flat.Loads()[u]; got != want {
					t.Fatalf("%s d=%d d°=%d round %d node %d: compressed engine %d, per-node %d",
						algo.Name(), d, loops, round, u, got, want)
				}
			}
		}
	})
}

// fuzzLoad decodes load i as a little-endian int32 from four consecutive
// bytes of raw, wrapping around its end; without negative, a negative value
// becomes its magnitude. An empty raw gives zero loads.
func fuzzLoad(raw []byte, i int, negative bool) int64 {
	if len(raw) == 0 {
		return 0
	}
	var v uint32
	for k := 0; k < 4; k++ {
		v |= uint32(raw[(4*i+k)%len(raw)]) << (8 * k)
	}
	x := int64(int32(v))
	if x < 0 && !negative {
		x = -x
	}
	return x
}
