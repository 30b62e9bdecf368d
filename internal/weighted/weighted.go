// Package weighted extends the model to non-uniform tokens, the variant the
// paper's related work attributes to Akbari, Berenbrink and Sauerwald [4]:
// tokens carry integer weights, nodes balance total weight, and the
// discrepancy is measured in weight. Token indivisibility now bites twice —
// counts cannot be split (as before) and weights cannot be split either —
// so the achievable discrepancy picks up a w_max term.
//
// Every round each node deals its tokens, heaviest first, over its slots:
// its d original edges, then its self-loops, where a token stays. Two
// dealers are provided:
//
//   - RotorDealer — the weighted rotor-router: token k goes to slot
//     (rotor + k) mod d⁺ and the rotor advances by the token count, keeping
//     the count stream cumulatively 1-fair like the unweighted rotor-router;
//   - HalfDealer — a lazy splitter that keeps the heaviest ⌈k/2⌉ tokens and
//     deals the rest round-robin over the edges, a deliberately weaker
//     baseline.
//
// As both deal by weight, a node's weight trajectory depends only on its
// token count per distinct weight (class) and its rotor, never on token
// identities: a class of m tokens starting at slot r of D slots sends
// ⌊m/D⌋ + [((s − r) mod D) < m mod D] of them over slot s. So the process is
// a core.Model whose full state is the class counts and rotors: it runs on
// the harness's one round loop, and its cycles fast-forward.
package weighted

import (
	"cmp"
	"fmt"
	"slices"

	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/spectral"
)

// Token is one indivisible work item, the input format of NewBuilder.
type Token struct {
	// Weight is the token's load contribution, ≥ 0.
	Weight int64
	// ID is a stable identity for conservation checks.
	ID int64
}

// Dealer is a weighted balancing rule: how a node deals its tokens over its
// slots each round.
type Dealer interface {
	Name() string
	// deal deals node u's tokens, given as its class counts heaviest class
	// first, into the model's next round and returns u's next rotor word.
	deal(m *Model, u int, counts []int64, rotor int64) int64
}

// RotorDealer is the weighted rotor-router (see the package comment).
type RotorDealer struct{}

// Name implements Dealer.
func (RotorDealer) Name() string { return "weighted-rotor" }

func (RotorDealer) deal(m *Model, u int, counts []int64, rotor int64) int64 {
	for j, c := range counts {
		if c > 0 {
			m.send(u, j, c, int(rotor), m.dplus)
			rotor = (rotor + c) % int64(m.dplus)
		}
	}
	return rotor
}

// HalfDealer keeps the heaviest ⌈k/2⌉ tokens and deals the lighter half
// round-robin over the original edges only — a deliberately crude baseline
// that hoards weight. Its rotor word is the next edge, mod d.
type HalfDealer struct{}

// Name implements Dealer.
func (HalfDealer) Name() string { return "weighted-half" }

func (HalfDealer) deal(m *Model, u int, counts []int64, next int64) int64 {
	var keep int64
	for _, c := range counts {
		keep += c
	}
	keep = (keep + 1) / 2
	for j, c := range counts {
		kept := min(c, keep)
		keep -= kept
		m.add(u, j, kept)
		if c -= kept; c > 0 {
			m.send(u, j, c, int(next), m.d)
			next = (next + c) % int64(m.d)
		}
	}
	return next
}

// Builder is the core.ModelBuilder of the weighted process on one balancing
// graph, with one dealer and one initial token placement.
type Builder struct {
	b       *graph.Balancing
	dealer  Dealer
	weights []int64 // the class weights, heaviest first
	counts  []int64 // the initial class counts, node-major
	initial []int64 // the initial per-node weight
}

var _ core.Recurrent = (*Model)(nil)

// NewBuilder groups the initial tokens into weight classes; tokens[u] lists
// node u's starting tokens.
func NewBuilder(b *graph.Balancing, dealer Dealer, tokens [][]Token) (*Builder, error) {
	if len(tokens) != b.N() {
		return nil, fmt.Errorf("weighted: %d token lists for %d nodes", len(tokens), b.N())
	}
	var weights []int64
	for u := range tokens {
		for _, tok := range tokens[u] {
			if tok.Weight < 0 {
				return nil, fmt.Errorf("weighted: negative token weight %d at node %d", tok.Weight, u)
			}
			weights = append(weights, tok.Weight)
		}
	}
	heavierFirst := func(a, b int64) int { return cmp.Compare(b, a) }
	slices.SortFunc(weights, heavierFirst)
	weights = slices.Compact(weights)
	mb := &Builder{b: b, dealer: dealer, weights: weights,
		counts: make([]int64, b.N()*len(weights)), initial: make([]int64, b.N())}
	for u := range tokens {
		for _, tok := range tokens[u] {
			j, _ := slices.BinarySearchFunc(weights, tok.Weight, heavierFirst)
			mb.counts[u*len(weights)+j]++
			mb.initial[u] += tok.Weight
		}
	}
	return mb, nil
}

// Name implements core.ModelBuilder: the dealer's name.
func (mb *Builder) Name() string { return mb.dealer.Name() }

// Initial returns the tokens' per-node weight, the initial vector New takes.
func (mb *Builder) Initial() []int64 { return slices.Clone(mb.initial) }

// DefaultHorizon implements core.ModelBuilder: the paper's T = ⌈16·ln(nK)/µ⌉
// on the builder's graph, K the initial weight discrepancy, or 1 when the
// graph is disconnected and T is undefined.
func (mb *Builder) DefaultHorizon(n int) int {
	mu := spectral.Gap(mb.b)
	if mu < 1e-10 {
		return 1
	}
	return spectral.BalancingTime(n, int(core.Discrepancy(mb.initial)), mu)
}

// New implements core.ModelBuilder. x1 must be the builder's per-node
// weight (Initial): the tokens, not x1, are the model's initial state. The
// process is serial, so workers is ignored.
func (mb *Builder) New(x1 []int64, workers int) (core.Model, error) {
	if !slices.Equal(x1, mb.initial) {
		return nil, fmt.Errorf("weighted: initial vector is not the per-node weight of the %s builder's tokens", mb.Name())
	}
	n := mb.b.N()
	return &Model{dealer: mb.dealer, heads: mb.b.Graph().Heads(), d: mb.b.Degree(), dplus: mb.b.DegreePlus(),
		weights: mb.weights, cur: slices.Concat(mb.counts, make([]int64, n)), next: make([]int64, len(mb.counts)+n),
		load: slices.Clone(x1), nextLoad: make([]int64, n)}, nil
}

// Model is the weighted process: per node, one token count per weight class
// and one rotor word.
type Model struct {
	dealer         Dealer
	heads          []int32 // the original graph's arcs, d per node
	d, dplus       int
	weights        []int64 // the class weights, heaviest first
	cur, next      []int64 // n·W class counts, node-major, then n rotor words
	load, nextLoad []int64 // per-node weight
	round          int
}

// N implements core.Model.
func (m *Model) N() int { return len(m.load) }

// State implements core.Model: the per-node total weight.
func (m *Model) State() []int64 { return m.load }

// Round implements core.Model.
func (m *Model) Round() int { return m.round }

// Close implements core.Model; the model holds no workers.
func (m *Model) Close() {}

// Step implements core.Model: every node deals its tokens at once.
//
//detcheck:noalloc
func (m *Model) Step() error {
	w, nw := len(m.weights), len(m.load)*len(m.weights)
	clear(m.next[:nw])
	clear(m.nextLoad)
	for u := range m.load {
		m.next[nw+u] = m.dealer.deal(m, u, m.cur[u*w:(u+1)*w], m.cur[nw+u])
	}
	m.cur, m.next = m.next, m.cur
	m.load, m.nextLoad = m.nextLoad, m.load
	m.round++
	return nil
}

// send deals c tokens of class j from node u over the slots r, r+1, … of a
// cycle of period slots: ⌊c/period⌋ over every slot and one more over the
// first c mod period. Slots below d are u's edges; the rest are self-loops.
func (m *Model) send(u, j int, c int64, r, period int) {
	arcs := m.heads[u*m.d : (u+1)*m.d]
	if q := c / int64(period); q > 0 {
		for _, v := range arcs {
			m.add(int(v), j, q)
		}
		m.add(u, j, q*int64(period-m.d))
	}
	for range c % int64(period) {
		v := u
		if r < m.d {
			v = int(arcs[r])
		}
		m.add(v, j, 1)
		if r++; r == period {
			r = 0
		}
	}
}

// add places c tokens of class j at node v for the next round.
func (m *Model) add(v, j int, c int64) {
	m.next[v*len(m.weights)+j] += c
	m.nextLoad[v] += c * m.weights[j]
}

// Recurrent implements core.Recurrent: the class counts and rotor words are
// the whole state.
func (m *Model) Recurrent() bool { return true }

// AppendState implements core.Recurrent.
func (m *Model) AppendState(dst []int64) []int64 { return append(dst, m.cur...) }

// StateEquals implements core.Recurrent.
//
//detcheck:noalloc
func (m *Model) StateEquals(snap []int64) bool { return slices.Equal(snap, m.cur) }

// UniformTokens builds count tokens of equal weight at one node, IDs 0..count-1.
func UniformTokens(n, node int, count int, weight int64) [][]Token {
	out := make([][]Token, n)
	for i := 0; i < count; i++ {
		out[node] = append(out[node], Token{Weight: weight, ID: int64(i)})
	}
	return out
}

// SpreadTokens builds tokens with the given weights all at one node.
func SpreadTokens(n, node int, weights []int64) [][]Token {
	out := make([][]Token, n)
	for i, w := range weights {
		out[node] = append(out[node], Token{Weight: w, ID: int64(i)})
	}
	return out
}
