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
// seeds and loads, over several rounds so rotor state advances too. algoIn
// picks send-floor, send-round, rotor-router, good-s or biased rounding; the
// seed corpus under testdata/fuzz covers each of them.
func FuzzFlatMatchesPerNode(f *testing.F) {
	f.Fuzz(func(t *testing.T, algoIn, dIn, loopsIn uint8, seed int64, loads []byte) {
		const n = 18
		d := 2 + int(dIn)%8 // 2..9; n is even, so n·d is too
		loops := int(loopsIn) % 64
		negative := true
		var algo core.Balancer
		switch algoIn % 5 {
		case 0:
			algo = NewSendFloor()
		case 1:
			loops = max(loops, d) // send-round needs d⁺ ≥ 2d
			negative = false
			algo = NewSendRound()
		case 2:
			algo = NewRotorRouter()
		case 3:
			loops = max(loops, 1) // good-s needs 1 ≤ s ≤ d°
			algo = NewGoodS(1 + int(uint64(seed)%uint64(loops)))
		default:
			algo = NewBiasedRounding()
		}
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
