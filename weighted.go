package detlb

import "detlb/internal/weighted"

// Non-uniform tokens extension (related work [4]): tokens carry integer
// weights and the discrepancy is measured in total weight per node. The
// process is a Model; run it with RunSpec{Model: b, Initial: b.Initial()}.
type (
	// WeightedToken is one indivisible weighted work item.
	WeightedToken = weighted.Token
	// WeightedBuilder is the ModelBuilder of the weighted process.
	WeightedBuilder = weighted.Builder
	// WeightedRotorDealer is the weighted rotor-router (largest-first deal).
	WeightedRotorDealer = weighted.RotorDealer
	// WeightedHalfDealer is the hoarding baseline dealer.
	WeightedHalfDealer = weighted.HalfDealer
)

var (
	// NewWeightedBuilder groups tokens into weight classes for one dealer.
	NewWeightedBuilder = weighted.NewBuilder
	// UniformTokens places equal-weight tokens on one node.
	UniformTokens = weighted.UniformTokens
	// SpreadTokens places tokens with explicit weights on one node.
	SpreadTokens = weighted.SpreadTokens
)
