// Package trace records per-round simulation series and exports them as CSV
// or JSON Lines, so experiment trajectories can be re-plotted outside Go.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"detlb/internal/columns"
	"detlb/internal/core"
)

// Sample is one recorded round.
type Sample struct {
	Round       int   `json:"round"`
	Discrepancy int64 `json:"discrepancy"`
	Max         int64 `json:"max"`
	Min         int64 `json:"min"`
	// Phi is φ(PhiThreshold) when potential tracking is enabled, nil
	// otherwise. It is a pointer, not an omitempty int64: omitempty would
	// silently drop a legitimate φ = 0 from JSONL output and produce ragged
	// records when PhiThreshold ≥ 0.
	Phi *int64 `json:"phi,omitempty"`
	// Shock, when non-nil, marks this sample as a dynamic-workload injection
	// point: it was recorded immediately after a load delta was applied
	// between rounds, and carries the net injected token count. The value can
	// legitimately be 0 (a pure migration such as churn), so presence — the
	// pointer — is the marker, mirroring Phi.
	Shock *int64 `json:"shock,omitempty"`
	// Fault, when non-nil, marks this sample as a topology-event point: it
	// was recorded immediately after link/node fault events were applied
	// between rounds. Every count inside can legitimately be 0 (e.g. a pure
	// restore has no failures), so presence — the pointer — is the marker,
	// mirroring Shock.
	Fault *FaultMark `json:"fault,omitempty"`
}

// FaultMark summarizes the topology event behind a Fault-marked sample.
type FaultMark struct {
	FailedLinks   int `json:"failed_links,omitempty"`
	RestoredLinks int `json:"restored_links,omitempty"`
	FailedNodes   int `json:"failed_nodes,omitempty"`
	RestoredNodes int `json:"restored_nodes,omitempty"`
	// Components is the live component count after the event (1 while the
	// live graph stays connected; it is always ≥ 1 and never omitted).
	Components int `json:"components"`
	// Stranded is the load removed with stranded node failures.
	Stranded int64 `json:"stranded,omitempty"`
}

// Recorder is a core.Auditor that snapshots load statistics every Interval
// rounds (Interval ≤ 1 records every round).
type Recorder struct {
	// Interval is the sampling period in rounds.
	Interval int
	// PhiThreshold, when ≥ 0, also records φ(PhiThreshold).
	PhiThreshold int64

	samples []Sample
}

// NewRecorder samples every interval rounds without potential tracking.
func NewRecorder(interval int) *Recorder {
	return &Recorder{Interval: interval, PhiThreshold: -1}
}

// Samples returns the recorded series (shared; do not modify).
func (r *Recorder) Samples() []Sample { return r.samples }

// Requires implements core.Auditor.
func (r *Recorder) Requires() core.Requirements { return core.Requirements{} }

// Observe implements core.Auditor; it never fails a run.
func (r *Recorder) Observe(e *core.Engine, _ []int64, _, _ [][]int64) error {
	iv := r.Interval
	if iv < 1 {
		iv = 1
	}
	if e.Round()%iv != 0 {
		return nil
	}
	loads := e.Loads()
	var lo, hi int64
	if len(loads) > 0 {
		lo, hi = loads[0], loads[0]
		for _, v := range loads[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	s := Sample{Round: e.Round(), Discrepancy: hi - lo, Max: hi, Min: lo}
	if r.PhiThreshold >= 0 {
		phi := core.Phi(loads, r.PhiThreshold, e.Balancing().DegreePlus())
		s.Phi = &phi
	}
	r.samples = append(r.samples, s)
	return nil
}

// WriteCSV emits the series with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{columns.Round, columns.Discrepancy, columns.MaxLoad, columns.MinLoad}
	withPhi := r.PhiThreshold >= 0
	if withPhi {
		header = append(header, fmt.Sprintf("phi_%d", r.PhiThreshold))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range r.samples {
		rec := []string{
			strconv.Itoa(s.Round),
			strconv.FormatInt(s.Discrepancy, 10),
			strconv.FormatInt(s.Max, 10),
			strconv.FormatInt(s.Min, 10),
		}
		if withPhi {
			phi := ""
			if s.Phi != nil {
				phi = strconv.FormatInt(*s.Phi, 10)
			}
			rec = append(rec, phi)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// WriteJSONL emits one JSON object per sample.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteSamplesJSONL(w, r.samples)
}

// WriteSamplesJSONL emits one JSON object per sample; it is the free-function
// form used by harness tools exporting series they assembled themselves
// (e.g. sweep trajectories) rather than through a Recorder.
func WriteSamplesJSONL(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: encode sample: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadJSONL parses a series previously produced by WriteJSONL or
// WriteSamplesJSONL, preserving φ values and shock markers exactly — the
// round-trip partner the recovery experiments re-plot from.
func ReadJSONL(rd io.Reader) ([]Sample, error) {
	var out []Sample
	dec := json.NewDecoder(rd)
	for i := 0; ; i++ {
		var s Sample
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode sample %d: %w", i, err)
		}
		out = append(out, s)
	}
}

// ReadCSV parses a series previously produced by WriteCSV (ignoring any φ
// column).
func ReadCSV(rd io.Reader) ([]Sample, error) {
	cr := csv.NewReader(rd)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]Sample, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) < 4 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want ≥ 4", i+2, len(row))
		}
		round, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d round: %w", i+2, err)
		}
		vals := make([]int64, 3)
		for k := 0; k < 3; k++ {
			vals[k], err = strconv.ParseInt(row[k+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d col %d: %w", i+2, k+1, err)
			}
		}
		out = append(out, Sample{Round: round, Discrepancy: vals[0], Max: vals[1], Min: vals[2]})
	}
	return out, nil
}
