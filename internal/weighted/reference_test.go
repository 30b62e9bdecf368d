package weighted

// The token engine as it was before the weighted process became a class-count
// core.Model: every node holds its tokens, sorts them by weight and ID each
// round and deals them into per-edge buckets. It is kept verbatim, apart from
// the ref prefix on its names (and on the per-node dealers, renamed
// refRotorNode and refHalfNode), as the reference the tests and
// FuzzWeightedModelMatchesTokens hold the model to, and as the one place
// token identities survive a round (TestTokenConservationByID).

import (
	"fmt"
	"sort"

	"detlb/internal/graph"
)

// refDealer decides, for one node and one round, which tokens travel over which
// original edge. Implementations receive the node's tokens (ownership
// transferred) and must return:
//
//	out[i] — tokens sent over original edge i (len(out) == d),
//	kept   — tokens remaining at the node.
//
// Every input token must appear in exactly one output bucket.
type refDealer interface {
	Deal(tokens []Token) (out [][]Token, kept []Token)
}

// refBalancer binds per-node dealers.
type refBalancer interface {
	Name() string
	Bind(b *graph.Balancing) []refDealer
}

// refEngine runs the weighted diffusive process on a (regular) balancing graph.
type refEngine struct {
	b       *graph.Balancing
	dealers []refDealer
	nodes   [][]Token
	inbox   [][]Token
	round   int
}

// refNewEngine distributes the initial tokens and binds the balancer.
// initial[u] lists node u's starting tokens (copied).
func refNewEngine(b *graph.Balancing, algo refBalancer, initial [][]Token) (*refEngine, error) {
	if len(initial) != b.N() {
		return nil, fmt.Errorf("weighted: %d token lists for %d nodes", len(initial), b.N())
	}
	e := &refEngine{
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
func (e *refEngine) Round() int { return e.round }

// Tokens returns node u's current tokens (shared; do not modify).
func (e *refEngine) Tokens(u int) []Token { return e.nodes[u] }

// Loads returns the per-node total weights.
func (e *refEngine) Loads() []int64 {
	out := make([]int64, e.b.N())
	for u, toks := range e.nodes {
		for _, tok := range toks {
			out[u] += tok.Weight
		}
	}
	return out
}

// TotalWeight returns the weight sum over all nodes.
func (e *refEngine) TotalWeight() int64 {
	var sum int64
	for _, toks := range e.nodes {
		for _, tok := range toks {
			sum += tok.Weight
		}
	}
	return sum
}

// TokenCount returns the total number of tokens.
func (e *refEngine) TokenCount() int {
	c := 0
	for _, toks := range e.nodes {
		c += len(toks)
	}
	return c
}

// WeightDiscrepancy returns max − min of the per-node total weights.
func (e *refEngine) WeightDiscrepancy() int64 {
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
func (e *refEngine) Step() {
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
func (e *refEngine) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Step()
	}
}

// refRotorDealer is the weighted rotor-router (see the package comment).
type refRotorDealer struct{}

// Name implements refBalancer.
func (refRotorDealer) Name() string { return "weighted-rotor" }

// Bind implements refBalancer.
func (refRotorDealer) Bind(b *graph.Balancing) []refDealer {
	dealers := make([]refDealer, b.N())
	for u := range dealers {
		dealers[u] = &refRotorNode{d: b.Degree(), dplus: b.DegreePlus()}
	}
	return dealers
}

type refRotorNode struct {
	d     int
	dplus int
	rotor int
}

func (r *refRotorNode) Deal(tokens []Token) ([][]Token, []Token) {
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

// refHalfDealer keeps the heaviest ⌈k/2⌉ tokens and deals the lighter half
// round-robin over the original edges only — a deliberately crude baseline
// that hoards weight.
type refHalfDealer struct{}

// Name implements refBalancer.
func (refHalfDealer) Name() string { return "weighted-half" }

// Bind implements refBalancer.
func (refHalfDealer) Bind(b *graph.Balancing) []refDealer {
	dealers := make([]refDealer, b.N())
	for u := range dealers {
		dealers[u] = &refHalfNode{d: b.Degree()}
	}
	return dealers
}

type refHalfNode struct {
	d    int
	next int
}

func (h *refHalfNode) Deal(tokens []Token) ([][]Token, []Token) {
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
