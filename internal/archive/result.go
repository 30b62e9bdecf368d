package archive

import (
	"encoding/json"
	"fmt"

	"detlb/internal/analysis"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

// The result document is the archived half of an archive entry: one record
// per expanded cell, in cell order. Every field is a deterministic function
// of the canonical scenario — no wall-clock times, no host details — so
// re-executing an archived scenario must reproduce the document
// bit-identically; that byte equality is the archive's regression contract.
// Field names come from the internal/columns registry (pinned by test);
// the encoding is json.MarshalIndent with two-space indent plus a trailing
// newline, and must never change — it is what the digests' bytes are
// compared against.

// ShockResult is the wire form of one analysis.Shock.
type ShockResult struct {
	Round           int   `json:"round"`
	Added           int64 `json:"added"`
	Removed         int64 `json:"removed"`
	Discrepancy     int64 `json:"discrepancy"`
	PeakDiscrepancy int64 `json:"peak_discrepancy"`
	RecoveryRound   int   `json:"recovery_round"`
	RecoveryRounds  int   `json:"recovery_rounds"`
}

// FaultResult is the wire form of one analysis.FaultEvent.
type FaultResult struct {
	Round           int     `json:"round"`
	FailedLinks     int     `json:"failed_links,omitempty"`
	RestoredLinks   int     `json:"restored_links,omitempty"`
	FailedNodes     int     `json:"failed_nodes,omitempty"`
	RestoredNodes   int     `json:"restored_nodes,omitempty"`
	Stranded        int64   `json:"stranded,omitempty"`
	Redistributed   int64   `json:"redistributed,omitempty"`
	Components      int     `json:"components"`
	Gap             float64 `json:"gap"`
	Discrepancy     int64   `json:"discrepancy"`
	PeakDiscrepancy int64   `json:"peak_discrepancy"`
	RecoveryRound   int     `json:"recovery_round"`
	RecoveryRounds  int     `json:"recovery_rounds"`
	UnreachableLoad int64   `json:"unreachable_load,omitempty"`
}

// CellResult is one cell's outcome: the canonical descriptor labels plus the
// RunResult fields, with the sampled trajectory in the trace wire encoding
// (the same records the stream endpoint sends and trace.ReadJSONL parses).
type CellResult struct {
	Graph    string `json:"graph"`
	Algo     string `json:"algo"`
	Workload string `json:"workload"`
	Schedule string `json:"schedule,omitempty"`
	Topology string `json:"topology,omitempty"`
	// Metric names a model run's convergence metric; absent for diffusion
	// cells, so pre-model result documents re-encode byte-identically.
	Metric string `json:"metric,omitempty"`

	N         int `json:"n"`
	Degree    int `json:"d"`
	SelfLoops int `json:"self_loops"`

	Gap           float64 `json:"gap"`
	BalancingTime int     `json:"balancing_time"`
	Horizon       int     `json:"horizon"`
	Rounds        int     `json:"rounds"`
	InitialDisc   int64   `json:"initial_discrepancy"`
	FinalDisc     int64   `json:"final_discrepancy"`
	MinDisc       int64   `json:"min_discrepancy"`
	TargetRound   int     `json:"target_round"`
	StoppedEarly  bool    `json:"stopped_early"`
	ReachedTarget bool    `json:"reached_target"`

	Shocks []ShockResult  `json:"shocks,omitempty"`
	Faults []FaultResult  `json:"faults,omitempty"`
	Series []trace.Sample `json:"series,omitempty"`
	Err    string         `json:"error,omitempty"`
}

// ResultDoc is the archived result document for one run.
type ResultDoc struct {
	Version int          `json:"version"`
	Name    string       `json:"name,omitempty"`
	Digest  string       `json:"digest"`
	Cells   []CellResult `json:"cells"`
}

// ResultVersion is the result document version. It moves whenever the
// documents' bytes do for the same scenario, so Archive.Put can tell an
// entry recorded by older code (ErrStale) from a regression (ErrMismatch).
// Version 2: gaps come from the Lanczos solver instead of power iteration;
// only the gap fields changed.
const ResultVersion = 2

// CellResultOf folds one cell's spec and result into its wire record. The
// labels are the canonical descriptor columns (not Balancing.Name()), so
// the document is recomputable from the scenario alone.
func CellResultOf(spec analysis.RunSpec, res analysis.RunResult, cols scenario.CellColumns) CellResult {
	c := CellResult{
		Graph:    cols.Graph,
		Algo:     cols.Algo,
		Workload: cols.Workload,
		Schedule: cols.Schedule,
		Topology: cols.Topology,
		Metric:   res.Metric,

		Gap:           res.Gap,
		BalancingTime: res.BalancingTime,
		Horizon:       res.Horizon,
		Rounds:        res.Rounds,
		InitialDisc:   res.InitialDiscrepancy,
		FinalDisc:     res.FinalDiscrepancy,
		MinDisc:       res.MinDiscrepancy,
		TargetRound:   res.TargetRound,
		StoppedEarly:  res.StoppedEarly,
		ReachedTarget: res.ReachedTarget,
	}
	if spec.Balancing != nil {
		c.N = spec.Balancing.N()
		c.Degree = spec.Balancing.Degree()
		c.SelfLoops = spec.Balancing.SelfLoops()
	}
	for _, s := range res.Shocks {
		c.Shocks = append(c.Shocks, ShockResult{
			Round:           s.Round,
			Added:           s.Added,
			Removed:         s.Removed,
			Discrepancy:     s.Discrepancy,
			PeakDiscrepancy: s.PeakDiscrepancy,
			RecoveryRound:   s.RecoveryRound,
			RecoveryRounds:  s.RecoveryRounds,
		})
	}
	for _, f := range res.Faults {
		c.Faults = append(c.Faults, FaultResult{
			Round:           f.Round,
			FailedLinks:     f.FailedLinks,
			RestoredLinks:   f.RestoredLinks,
			FailedNodes:     f.FailedNodes,
			RestoredNodes:   f.RestoredNodes,
			Stranded:        f.Stranded,
			Redistributed:   f.Redistributed,
			Components:      f.Components,
			Gap:             f.Gap,
			Discrepancy:     f.Discrepancy,
			PeakDiscrepancy: f.PeakDiscrepancy,
			RecoveryRound:   f.RecoveryRound,
			RecoveryRounds:  f.RecoveryRounds,
			UnreachableLoad: f.UnreachableLoad,
		})
	}
	for _, p := range res.Series {
		c.Series = append(c.Series, p.Sample())
	}
	if res.Err != nil {
		c.Err = res.Err.Error()
	}
	return c
}

// BuildResultDoc assembles and encodes the document. failures counts cells
// whose result carries an error.
func BuildResultDoc(name, digest string, cells []scenario.CellColumns, specs []analysis.RunSpec, results []analysis.RunResult) (doc []byte, failures int, err error) {
	d := ResultDoc{
		Version: ResultVersion,
		Name:    name,
		Digest:  digest,
		Cells:   make([]CellResult, len(results)),
	}
	for i, res := range results {
		d.Cells[i] = CellResultOf(specs[i], res, cells[i])
		if res.Err != nil {
			failures++
		}
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, failures, fmt.Errorf("archive: encode result: %w", err)
	}
	return append(data, '\n'), failures, nil
}
