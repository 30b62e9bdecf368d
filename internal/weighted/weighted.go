// Package weighted extends the model to non-uniform tokens, the variant the
// paper's related work attributes to Akbari, Berenbrink and Sauerwald [4]:
// tokens carry integer weights, nodes balance total weight, and the
// discrepancy is measured in weight. Token indivisibility now bites twice —
// counts cannot be split (as before) and weights cannot be split either —
// so the achievable discrepancy picks up a w_max term.
//
// The package reuses the diffusive round structure: per round each node
// deals a subset of its tokens to its original edges; everything else stays.
// Two dealers are provided:
//
//   - RotorDealer — the weighted rotor-router: tokens sorted by descending
//     weight are dealt one at a time over the node's d⁺ slots starting at
//     its rotor (largest-processing-time-style greedy), keeping the count
//     stream cumulatively 1-fair exactly like the unweighted rotor-router;
//   - HalfDealer — a lazy splitter that keeps the heaviest half locally and
//     deals the rest, a deliberately weaker baseline.
package weighted

import (
	"fmt"
	"sort"

	"detlb/internal/graph"
)

// Token is one indivisible work item.
type Token struct {
	// Weight is the token's load contribution, ≥ 0.
	Weight int64
	// ID is a stable identity for conservation checks.
	ID int64
}

// Dealer decides, for one node and one round, which tokens travel over which
// original edge. Implementations receive the node's tokens (ownership
// transferred) and must return:
//
//	out[i] — tokens sent over original edge i (len(out) == d),
//	kept   — tokens remaining at the node.
//
// Every input token must appear in exactly one output bucket.
type Dealer interface {
	Deal(tokens []Token) (out [][]Token, kept []Token)
}

// Balancer binds per-node dealers.
type Balancer interface {
	Name() string
	Bind(b *graph.Balancing) []Dealer
}

// Engine runs the weighted diffusive process on a (regular) balancing graph.
type Engine struct {
	b       *graph.Balancing
	dealers []Dealer
	nodes   [][]Token
	inbox   [][]Token
	round   int
}

// NewEngine distributes the initial tokens and binds the balancer.
// initial[u] lists node u's starting tokens (copied).
func NewEngine(b *graph.Balancing, algo Balancer, initial [][]Token) (*Engine, error) {
	if len(initial) != b.N() {
		return nil, fmt.Errorf("weighted: %d token lists for %d nodes", len(initial), b.N())
	}
	e := &Engine{
		b:       b,
		dealers: algo.Bind(b),
		nodes:   make([][]Token, b.N()),
		inbox:   make([][]Token, b.N()),
	}
	if len(e.dealers) != b.N() {
		return nil, fmt.Errorf("weighted: balancer %q bound %d dealers", algo.Name(), len(e.dealers))
	}
	for u := range initial {
		for _, tok := range initial[u] {
			if tok.Weight < 0 {
				return nil, fmt.Errorf("weighted: negative token weight %d at node %d", tok.Weight, u)
			}
		}
		e.nodes[u] = append([]Token(nil), initial[u]...)
	}
	return e, nil
}

// Round returns completed rounds.
func (e *Engine) Round() int { return e.round }

// Tokens returns node u's current tokens (shared; do not modify).
func (e *Engine) Tokens(u int) []Token { return e.nodes[u] }

// Loads returns the per-node total weights.
func (e *Engine) Loads() []int64 {
	out := make([]int64, e.b.N())
	for u, toks := range e.nodes {
		for _, tok := range toks {
			out[u] += tok.Weight
		}
	}
	return out
}

// TotalWeight returns the weight sum over all nodes.
func (e *Engine) TotalWeight() int64 {
	var sum int64
	for _, toks := range e.nodes {
		for _, tok := range toks {
			sum += tok.Weight
		}
	}
	return sum
}

// TokenCount returns the total number of tokens.
func (e *Engine) TokenCount() int {
	c := 0
	for _, toks := range e.nodes {
		c += len(toks)
	}
	return c
}

// WeightDiscrepancy returns max − min of the per-node total weights.
func (e *Engine) WeightDiscrepancy() int64 {
	loads := e.Loads()
	lo, hi := loads[0], loads[0]
	for _, v := range loads[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Step runs one synchronous round.
func (e *Engine) Step() {
	e.round++
	g := e.b.Graph()
	for u := range e.inbox {
		e.inbox[u] = e.inbox[u][:0]
	}
	for u := range e.nodes {
		out, kept := e.dealers[u].Deal(e.nodes[u])
		if len(out) != g.Degree() {
			panic(fmt.Sprintf("weighted: dealer at node %d returned %d edge buckets, want %d",
				u, len(out), g.Degree()))
		}
		e.nodes[u] = kept
		for i, v := range g.Neighbors(u) {
			e.inbox[v] = append(e.inbox[v], out[i]...)
		}
	}
	for u := range e.nodes {
		e.nodes[u] = append(e.nodes[u], e.inbox[u]...)
	}
}

// Run executes the given number of rounds.
func (e *Engine) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Step()
	}
}

// RotorDealer is the weighted rotor-router (see the package comment).
type RotorDealer struct{}

// Name implements Balancer.
func (RotorDealer) Name() string { return "weighted-rotor" }

// Bind implements Balancer.
func (RotorDealer) Bind(b *graph.Balancing) []Dealer {
	dealers := make([]Dealer, b.N())
	for u := range dealers {
		dealers[u] = &rotorDealer{d: b.Degree(), dplus: b.DegreePlus()}
	}
	return dealers
}

type rotorDealer struct {
	d     int
	dplus int
	rotor int
}

func (r *rotorDealer) Deal(tokens []Token) ([][]Token, []Token) {
	// Largest weights first, ID as a deterministic tiebreak.
	sort.Slice(tokens, func(i, j int) bool {
		if tokens[i].Weight != tokens[j].Weight {
			return tokens[i].Weight > tokens[j].Weight
		}
		return tokens[i].ID < tokens[j].ID
	})
	out := make([][]Token, r.d)
	var kept []Token
	for k, tok := range tokens {
		slot := (r.rotor + k) % r.dplus
		if slot < r.d {
			out[slot] = append(out[slot], tok)
		} else {
			kept = append(kept, tok)
		}
	}
	r.rotor = (r.rotor + len(tokens)) % r.dplus
	return out, kept
}

// HalfDealer keeps the heaviest ⌈k/2⌉ tokens and deals the lighter half
// round-robin over the original edges only — a deliberately crude baseline
// that hoards weight.
type HalfDealer struct{}

// Name implements Balancer.
func (HalfDealer) Name() string { return "weighted-half" }

// Bind implements Balancer.
func (HalfDealer) Bind(b *graph.Balancing) []Dealer {
	dealers := make([]Dealer, b.N())
	for u := range dealers {
		dealers[u] = &halfDealer{d: b.Degree()}
	}
	return dealers
}

type halfDealer struct {
	d    int
	next int
}

func (h *halfDealer) Deal(tokens []Token) ([][]Token, []Token) {
	sort.Slice(tokens, func(i, j int) bool {
		if tokens[i].Weight != tokens[j].Weight {
			return tokens[i].Weight > tokens[j].Weight
		}
		return tokens[i].ID < tokens[j].ID
	})
	out := make([][]Token, h.d)
	keep := (len(tokens) + 1) / 2
	kept := append([]Token(nil), tokens[:keep]...)
	for _, tok := range tokens[keep:] {
		out[h.next%h.d] = append(out[h.next%h.d], tok)
		h.next++
	}
	return out, kept
}

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
