package weighted

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
)

// newModel builds the weighted model of tokens on b.
func newModel(t testing.TB, b *graph.Balancing, dealer Dealer, tokens [][]Token) *Model {
	t.Helper()
	mb, err := NewBuilder(b, dealer, tokens)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mb.New(mb.Initial(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*Model)
}

// stepModel runs the weighted model of tokens on b for the given rounds and
// returns its per-node weight discrepancy.
func stepModel(t *testing.T, b *graph.Balancing, dealer Dealer, tokens [][]Token, rounds int) int64 {
	t.Helper()
	m := newModel(t, b, dealer, tokens)
	for range rounds {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return core.Discrepancy(m.State())
}

func TestEngineValidation(t *testing.T) {
	b := graph.Lazy(graph.Cycle(4))
	if _, err := NewBuilder(b, RotorDealer{}, make([][]Token, 3)); err == nil {
		t.Fatal("expected shape error")
	}
	bad := make([][]Token, 4)
	bad[0] = []Token{{Weight: -1}}
	if _, err := NewBuilder(b, RotorDealer{}, bad); err == nil {
		t.Fatal("expected negative weight error")
	}
	mb, err := NewBuilder(b, RotorDealer{}, SpreadTokens(4, 1, []int64{3, 0, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if got := mb.Initial(); !slices.Equal(got, []int64{0, 8, 0, 0}) {
		t.Fatalf("initial weight %v", got)
	}
	for _, x1 := range [][]int64{{8, 0, 0, 0}, {0, 8, 0}, nil} {
		if _, err := mb.New(x1, 0); err == nil {
			t.Fatalf("initial vector %v accepted for tokens weighing [0 8 0 0]", x1)
		}
	}
}

func TestTokenConservationByID(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	weights := make([]int64, 200)
	for i := range weights {
		weights[i] = int64(1 + i%7)
	}
	eng, err := refNewEngine(b, refRotorDealer{}, SpreadTokens(16, 0, weights))
	if err != nil {
		t.Fatal(err)
	}
	wantWeight := eng.TotalWeight()
	eng.Run(300)
	if eng.TokenCount() != 200 {
		t.Fatalf("token count %d", eng.TokenCount())
	}
	if eng.TotalWeight() != wantWeight {
		t.Fatalf("weight %d, want %d", eng.TotalWeight(), wantWeight)
	}
	seen := make(map[int64]bool, 200)
	for u := 0; u < 16; u++ {
		for _, tok := range eng.Tokens(u) {
			if seen[tok.ID] {
				t.Fatalf("token %d duplicated", tok.ID)
			}
			seen[tok.ID] = true
		}
	}
	if len(seen) != 200 {
		t.Fatalf("lost tokens: %d ids", len(seen))
	}
}

func TestUniformWeightsMatchUnweightedBehaviour(t *testing.T) {
	// With unit weights the weighted rotor balances weight like the ordinary
	// rotor balances counts: down to O(d).
	b := graph.Lazy(graph.Hypercube(5))
	if disc := stepModel(t, b, RotorDealer{}, UniformTokens(32, 0, 32*20+5, 1), 1500); disc > int64(2*b.Degree()) {
		t.Fatalf("unit-weight discrepancy %d", disc)
	}
}

func TestHeavyTokensAddWmaxTerm(t *testing.T) {
	// Mixed weights: discrepancy lands at O(d·w_max) rather than O(d).
	b := graph.Lazy(graph.Hypercube(5))
	rng := rand.New(rand.NewSource(5))
	weights := make([]int64, 600)
	var wmax int64
	for i := range weights {
		weights[i] = 1 + rng.Int63n(16)
		if weights[i] > wmax {
			wmax = weights[i]
		}
	}
	if disc := stepModel(t, b, RotorDealer{}, SpreadTokens(32, 0, weights), 3000); disc > int64(2*b.Degree())*wmax {
		t.Fatalf("weighted discrepancy %d > 2d·wmax = %d", disc, int64(2*b.Degree())*wmax)
	}
}

func TestRotorBeatsHalfDealer(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(5))
	weights := make([]int64, 500)
	rng := rand.New(rand.NewSource(7))
	for i := range weights {
		weights[i] = 1 + rng.Int63n(9)
	}
	rotor := stepModel(t, b, RotorDealer{}, SpreadTokens(32, 0, weights), 2000)
	half := stepModel(t, b, HalfDealer{}, SpreadTokens(32, 0, weights), 2000)
	// The hoarding baseline spreads light tokens aggressively, so on mild
	// weight mixes the two end up close; the rotor must never be
	// meaningfully worse, and both must land in the O(d·w̄) regime.
	if rotor > half+int64(2*b.Degree()) {
		t.Fatalf("weighted rotor (%d) much worse than the hoarding baseline (%d)", rotor, half)
	}
	if rotor > 10*int64(b.Degree()) {
		t.Fatalf("weighted rotor stuck at discrepancy %d", rotor)
	}
}

func TestDealersPartitionTokens(t *testing.T) {
	// Property: every reference dealer outputs each input token exactly once.
	f := func(seed int64, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(countRaw%50) + 1
		tokens := make([]Token, count)
		for i := range tokens {
			tokens[i] = Token{Weight: rng.Int63n(20), ID: int64(i)}
		}
		for _, mk := range []func() refDealer{
			func() refDealer { return &refRotorNode{d: 3, dplus: 6} },
			func() refDealer { return &refHalfNode{d: 3} },
		} {
			out, kept := mk().Deal(append([]Token(nil), tokens...))
			seen := make(map[int64]int)
			for _, bucket := range out {
				for _, tok := range bucket {
					seen[tok.ID]++
				}
			}
			for _, tok := range kept {
				seen[tok.ID]++
			}
			if len(seen) != count {
				return false
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRotorDealerCountFairness(t *testing.T) {
	// The weighted rotor's per-edge token-count stream stays cumulatively
	// 1-fair, exactly like the unweighted rotor-router.
	dealer := &refRotorNode{d: 2, dplus: 4}
	counts := make([]int64, 2)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 500; round++ {
		k := int(rng.Int63n(11))
		tokens := make([]Token, k)
		for i := range tokens {
			tokens[i] = Token{Weight: rng.Int63n(5), ID: int64(round*100 + i)}
		}
		out, _ := dealer.Deal(tokens)
		for i, bucket := range out {
			counts[i] += int64(len(bucket))
		}
		diff := counts[0] - counts[1]
		if diff < -1 || diff > 1 {
			t.Fatalf("round %d: cumulative count spread %d", round, diff)
		}
	}
}

// checkMatchesTokens holds the model's full state to the reference token
// engine's after the same rounds: every node's weight, its token count per
// weight class and its rotor word.
func checkMatchesTokens(t *testing.T, m *Model, ref *refEngine, round int) {
	t.Helper()
	if !slices.Equal(m.State(), ref.Loads()) {
		t.Fatalf("round %d: model loads %v, token engine %v", round, m.State(), ref.Loads())
	}
	w, nw := len(m.weights), len(m.cur)-m.N()
	counts := make([]int64, w)
	for u := range m.N() {
		clear(counts)
		for _, tok := range ref.Tokens(u) {
			counts[slices.Index(m.weights, tok.Weight)]++
		}
		if got := m.cur[u*w : (u+1)*w]; !slices.Equal(got, counts) {
			t.Fatalf("round %d node %d: class counts %v, token engine %v (weights %v)", round, u, got, counts, m.weights)
		}
		var word int64
		switch dl := ref.dealers[u].(type) {
		case *refRotorNode:
			word = int64(dl.rotor)
		case *refHalfNode:
			word = int64(dl.next % dl.d)
		}
		if m.cur[nw+u] != word {
			t.Fatalf("round %d node %d: rotor word %d, token engine %d", round, u, m.cur[nw+u], word)
		}
	}
}

// FuzzWeightedModelMatchesTokens holds the class-count model to the token
// engine it replaced, round by round, with fuzzed dealer, degree (1-8),
// self-loops (0-2d, so d⁺ ≠ 2d too), graph seed, token count (0-511),
// the nodes the tokens start on (the first 1-n), weights (0 to at most 16,
// zero included) and rounds (1-64). The tokens are drawn from the graph
// seed; the inputs are all integers, which the fuzzer does not minimize.
func FuzzWeightedModelMatchesTokens(f *testing.F) {
	f.Fuzz(func(t *testing.T, half bool, dIn, loopsIn uint8, seed int64, countIn uint16, spreadIn, wmaxIn, roundsIn uint8) {
		d := 1 + int(dIn)%8
		g := graph.Complete(2) // the only connected 1-regular graph
		if d > 1 {
			g = graph.RandomRegular(2*d+2, d, seed) // 2d+2 is even, so n·d is too
		}
		b := graph.WithLoops(g, int(loopsIn)%(2*d+1))
		rng := rand.New(rand.NewSource(seed))
		tokens := make([][]Token, b.N())
		for i := range int(countIn) % 512 {
			u := rng.Intn(1 + int(spreadIn)%b.N())
			tokens[u] = append(tokens[u], Token{Weight: rng.Int63n(1 + int64(wmaxIn)%17), ID: int64(i)})
		}
		var dealer Dealer = RotorDealer{}
		var refAlgo refBalancer = refRotorDealer{}
		if half {
			dealer, refAlgo = HalfDealer{}, refHalfDealer{}
		}
		m := newModel(t, b, dealer, tokens)
		ref, err := refNewEngine(b, refAlgo, tokens)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesTokens(t, m, ref, 0)
		for round := 1; round <= 1+int(roundsIn)%64; round++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			ref.Step()
			checkMatchesTokens(t, m, ref, round)
		}
	})
}

// TestUnitWeightsMatchRotorRouter: with unit weights the weighted rotor is
// the rotor-router on token counts. Its slots run edges 0…d−1, then the
// self-loops, so it matches the rotor-router with that slot order (the
// default order interleaves edges and self-loops).
func TestUnitWeightsMatchRotorRouter(t *testing.T) {
	for _, b := range []*graph.Balancing{
		graph.Lazy(graph.Hypercube(4)),
		graph.WithLoops(graph.Cycle(9), 0),
		graph.WithLoops(graph.RandomRegular(20, 3, 4), 5),
	} {
		rng := rand.New(rand.NewSource(int64(b.N())))
		tokens := make([][]Token, b.N())
		x1 := make([]int64, b.N())
		for u := range tokens {
			x1[u] = rng.Int63n(40)
			tokens[u] = UniformTokens(1, 0, int(x1[u]), 1)[0]
		}
		identity := make([][]int, b.N())
		for u := range identity {
			for s := range b.DegreePlus() {
				identity[u] = append(identity[u], s)
			}
		}
		eng := core.MustEngine(b, &balancer.RotorRouter{Order: identity}, x1)
		m := newModel(t, b, RotorDealer{}, tokens)
		for round := 1; round <= 200; round++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(m.State(), eng.Loads()) {
				t.Fatalf("%s round %d: weighted rotor %v, rotor-router %v", b.Name(), round, m.State(), eng.Loads())
			}
		}
	}
}

// TestStepAllocs: Step and StateEquals allocate nothing.
func TestStepAllocs(t *testing.T) {
	weights := make([]int64, 400)
	for i := range weights {
		weights[i] = int64(i % 9)
	}
	for _, dealer := range []Dealer{RotorDealer{}, HalfDealer{}} {
		m := newModel(t, graph.Lazy(graph.Hypercube(5)), dealer, SpreadTokens(32, 0, weights))
		snap := m.AppendState(nil)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			m.StateEquals(snap)
		}); allocs != 0 {
			t.Fatalf("%s: Step and StateEquals allocate %v times per round", dealer.Name(), allocs)
		}
	}
}
