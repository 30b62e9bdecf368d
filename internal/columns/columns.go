// Package columns is the shared wire-column registry: every field name that
// crosses a wire — the archived result documents (internal/archive), the
// trajectory samples and fault marks (internal/trace), and the archive
// index's queryable per-cell columns — is defined exactly once here. The
// structs that carry these names pin their json tags to the registry by
// reflection test, trace's CSV codec builds its header from the constants,
// and the archive query layer validates filters, projections, group-bys,
// and aggregates against Queryable(). Renaming a column is therefore a
// single-site change that the wiretags baseline and the pinning test both
// police, and a name can never drift between the result document, the
// stream events, and the query grammar.
package columns

// Wire field names shared by the result documents, trajectory samples, and
// the query grammar. Sample/shock/fault record fields first, then the
// per-cell result fields, then the document envelope.
const (
	// Trajectory sample fields (trace.Sample and the shock/fault events).
	Round       = "round"
	Discrepancy = "discrepancy"
	MaxLoad     = "max"
	MinLoad     = "min"
	Phi         = "phi"
	Shock       = "shock"
	Fault       = "fault"

	// Shock-event fields (archive.ShockResult).
	Added           = "added"
	Removed         = "removed"
	PeakDiscrepancy = "peak_discrepancy"
	RecoveryRound   = "recovery_round"
	RecoveryRounds  = "recovery_rounds"

	// Fault-event fields (archive.FaultResult and trace.FaultMark).
	FailedLinks     = "failed_links"
	RestoredLinks   = "restored_links"
	FailedNodes     = "failed_nodes"
	RestoredNodes   = "restored_nodes"
	Components      = "components"
	Stranded        = "stranded"
	Redistributed   = "redistributed"
	UnreachableLoad = "unreachable_load"

	// Per-cell result fields (archive.CellResult).
	Graph              = "graph"
	Algo               = "algo"
	Workload           = "workload"
	Schedule           = "schedule"
	Topology           = "topology"
	Metric             = "metric"
	N                  = "n"
	Degree             = "d"
	SelfLoops          = "self_loops"
	Gap                = "gap"
	BalancingTime      = "balancing_time"
	Horizon            = "horizon"
	Rounds             = "rounds"
	InitialDiscrepancy = "initial_discrepancy"
	FinalDiscrepancy   = "final_discrepancy"
	MinDiscrepancy     = "min_discrepancy"
	TargetRound        = "target_round"
	StoppedEarly       = "stopped_early"
	ReachedTarget      = "reached_target"
	Shocks             = "shocks"
	Faults             = "faults"
	Series             = "series"
	Error              = "error"

	// Result-document envelope fields (archive.ResultDoc, archive.Entry).
	Version = "version"
	Name    = "name"
	Digest  = "digest"
	Cells   = "cells"
)

// Index-only column names: derived per-cell values the archive index
// materializes for querying but that never appear in an archived document.
const (
	// Cell is the cell's ordinal within its family's expansion order.
	Cell = "cell"
	// GraphKind/AlgoKind/WorkloadKind are the descriptor family names
	// (e.g. "random" for graph "random:256,8,1") — the cross-family
	// grouping axes.
	GraphKind    = "graph_kind"
	AlgoKind     = "algo_kind"
	WorkloadKind = "workload_kind"
	// SeriesLen is the sampled-trajectory length (the series itself is not
	// projectable — it is a nested record, not a scalar column).
	SeriesLen = "series_len"
	// Shock/fault recovery aggregates over the cell's event lists.
	ShockRecoveryRoundsMax  = "shock_recovery_rounds_max"
	ShockRecoveryRoundsMean = "shock_recovery_rounds_mean"
	ShockPeakDiscrepancyMax = "shock_peak_discrepancy_max"
	FaultRecoveryRoundsMax  = "fault_recovery_rounds_max"
	FaultRecoveryRoundsMean = "fault_recovery_rounds_mean"
	FaultPeakDiscrepancyMax = "fault_peak_discrepancy_max"
)

// Kind is a queryable column's value type. It decides which filter
// operators apply (ordering needs a numeric or boolean column) and how
// values render in CSV rows and group keys.
type Kind int

const (
	// String columns filter by =, !=, and ~ (substring).
	String Kind = iota
	// Int columns carry int64 values.
	Int
	// Float columns carry float64 values.
	Float
	// Bool columns filter by = and != against "true"/"false".
	Bool
)

// String names the kind for error messages and the column table.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	default:
		return "unknown"
	}
}

// Col describes one queryable column of the archive index.
type Col struct {
	Name string
	Kind Kind
	Doc  string
}

// queryable is the registry of per-cell index columns, in presentation
// order: entry identity, descriptor labels, structural constants, then
// result metrics. Queryable returns a copy; the order is part of the wire
// contract (it is the default projection and the docs/archive.md table).
var queryable = []Col{
	{Digest, String, "entry digest (SHA-256 of the canonical scenario bytes)"},
	{Name, String, "family name (preset name; empty for ad-hoc scenarios)"},
	{Cell, Int, "cell ordinal within the family's expansion order"},
	{Graph, String, "canonical graph descriptor, e.g. random:256,8,1"},
	{GraphKind, String, "graph family name, e.g. random"},
	{Algo, String, "canonical algorithm descriptor"},
	{AlgoKind, String, "algorithm kind, e.g. rotor"},
	{Workload, String, "canonical workload descriptor"},
	{WorkloadKind, String, "workload kind, e.g. point"},
	{Schedule, String, "dynamic-load schedule descriptor (empty for static runs)"},
	{Topology, String, "fault-injection schedule descriptor (empty for pristine runs)"},
	{Metric, String, "model convergence metric name (empty for diffusion cells)"},
	{Error, String, "deterministic cell error (empty for successful cells)"},
	{N, Int, "node count"},
	{Degree, Int, "graph degree d"},
	{SelfLoops, Int, "self-loop count d°"},
	{Gap, Float, "spectral gap of the balancing graph"},
	{BalancingTime, Int, "paper balancing-time bound for the instance"},
	{Horizon, Int, "executed horizon T"},
	{Rounds, Int, "rounds actually executed"},
	{InitialDiscrepancy, Int, "discrepancy of the initial workload"},
	{FinalDiscrepancy, Int, "discrepancy at the final round"},
	{MinDiscrepancy, Int, "minimum discrepancy over the run"},
	{TargetRound, Int, "first round reaching the target (−1 when never reached; 0 when the initial load meets it)"},
	{StoppedEarly, Bool, "whether patience stopped the run early"},
	{ReachedTarget, Bool, "whether the discrepancy target was reached"},
	{Shocks, Int, "number of dynamic-workload shock events"},
	{Faults, Int, "number of topology fault events"},
	{SeriesLen, Int, "sampled-trajectory length"},
	{ShockRecoveryRoundsMax, Int, "slowest recovered shock (rounds; 0 when none recovered)"},
	{ShockRecoveryRoundsMean, Float, "mean recovery over recovered shocks (rounds; 0 when none recovered)"},
	{ShockPeakDiscrepancyMax, Int, "worst post-shock discrepancy peak"},
	{FaultRecoveryRoundsMax, Int, "slowest recovered fault (rounds; 0 when none recovered)"},
	{FaultRecoveryRoundsMean, Float, "mean recovery over recovered faults (rounds; 0 when none recovered)"},
	{FaultPeakDiscrepancyMax, Int, "worst post-fault discrepancy peak"},
}

// byName indexes queryable for Lookup; built once at init.
var byName = func() map[string]Col {
	m := make(map[string]Col, len(queryable))
	for _, c := range queryable {
		m[c.Name] = c
	}
	return m
}()

// Queryable returns the per-cell index columns in registry order.
func Queryable() []Col {
	out := make([]Col, len(queryable))
	copy(out, queryable)
	return out
}

// Lookup returns the queryable column named name.
func Lookup(name string) (Col, bool) {
	c, ok := byName[name]
	return c, ok
}
