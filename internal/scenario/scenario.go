// Package scenario is the declarative experiment-description layer: pure-data
// descriptors for every component of a run — graph family, algorithm, initial
// workload, dynamic-load schedule, fault-injection topology schedule, and the
// run parameters — that serialize to JSON, render back to the CLI
// mini-language, and bind into live analysis.RunSpec values through a
// constructor registry.
//
// One grammar, two front-ends: the text mini-language shared by lbsim and
// lbsweep (parse.go) and JSON scenario files (Load/Write) both produce the
// same normalized descriptors, so any flag combination can be snapshotted to
// a file and re-run bit-identically — every seed and every defaulted argument
// is materialized at parse time.
//
// A Scenario describes one run; a Family is the cross-product description
// (graphs × algos × workloads × schedules × topologies, the lbsweep grammar
// as data) that expands to Scenarios and binds to RunSpecs with the grouping
// the sweep harness expects: one balancing graph per graph descriptor, one
// algorithm instance per (graph, algorithm) pair.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"detlb/internal/analysis"
)

// Version is the scenario file format version this package reads and writes.
const Version = 1

// GraphSpec describes a balancing graph: a named family with integer
// arguments in grammar order, plus the self-loop count d°.
type GraphSpec struct {
	// Kind names the graph family: cycle, torus, hypercube, complete,
	// random, petersen, gp, kbipartite, circulant.
	Kind string `json:"kind"`
	// Args are the family parameters in the grammar's positional order
	// (e.g. random: n, d, seed). Normalization materializes defaults, so a
	// normalized descriptor is fully explicit.
	Args []int64 `json:"args,omitempty"`
	// Offsets are the circulant connection offsets (circulant only).
	Offsets []int `json:"offsets,omitempty"`
	// SelfLoops is d°; nil means lazy (d° = d), the paper's default. An
	// explicit 0 is valid (the Theorem 4.3 regime).
	SelfLoops *int `json:"self_loops,omitempty"`
}

// ModelProtocol is the AlgoSpec.Model tag of the population-protocol kinds
// (majority, herman). Diffusion balancers carry the empty tag — the historical
// encoding, so pre-model scenario files and their fingerprints are unchanged.
const ModelProtocol = "protocol"

// AlgoSpec describes the dynamics of a run: a diffusion balancer (kind plus
// its argument — good's s, or the seed of a seeded scheme) or a
// population-protocol model (majority, herman, seeded).
type AlgoSpec struct {
	Kind string  `json:"kind"`
	Args []int64 `json:"args,omitempty"`
	// Model tags the simulation family the kind belongs to: "" for diffusion
	// balancers, ModelProtocol for population-protocol kinds. Normalization
	// materializes it from the kind, like a defaulted argument, and rejects a
	// tag that contradicts the kind.
	Model string `json:"model,omitempty"`
}

// WorkloadSpec describes the initial load vector x₁.
type WorkloadSpec struct {
	Kind string  `json:"kind"`
	Args []int64 `json:"args,omitempty"`
}

// SchedulePart is one component of a dynamic-workload schedule.
type SchedulePart struct {
	Kind string  `json:"kind"`
	Args []int64 `json:"args,omitempty"`
}

// ScheduleSpec is a composition of schedule parts applied in order; empty
// means a static run (the "none" of the text grammar).
type ScheduleSpec []SchedulePart

// TopologyPart is one component of a fault-injection schedule — the
// structural counterpart of SchedulePart.
type TopologyPart struct {
	Kind string  `json:"kind"`
	Args []int64 `json:"args,omitempty"`
}

// TopologySpec is a composition of topology parts overlaid into one fault
// schedule; empty means a pristine run (the "none" of the text grammar).
type TopologySpec []TopologyPart

// RunParams are the harness parameters of a run — the RunSpec fields that are
// not component descriptors. The zero value means "paper defaults": horizon
// T, no patience, no target, serial engine, no sampling.
type RunParams struct {
	// Rounds caps the run; 0 uses the paper's horizon T.
	Rounds int `json:"rounds,omitempty"`
	// HorizonMultiple scales the default T (ignored when Rounds is set).
	HorizonMultiple int `json:"horizon_multiple,omitempty"`
	// Patience stops a run after this many rounds without a new minimum.
	Patience int `json:"patience,omitempty"`
	// Target is the discrepancy target; nil = none, 0 = perfect balance.
	Target *int64 `json:"target,omitempty"`
	// Workers selects engine parallelism (results are worker-independent).
	Workers int `json:"workers,omitempty"`
	// SampleEvery records the discrepancy every k rounds into the Series.
	SampleEvery int `json:"sample_every,omitempty"`
}

// Scenario is the declarative description of one run.
type Scenario struct {
	Graph    GraphSpec    `json:"graph"`
	Algo     AlgoSpec     `json:"algo"`
	Workload WorkloadSpec `json:"workload"`
	Schedule ScheduleSpec `json:"schedule,omitempty"`
	// Topology is the fault-injection schedule; empty means the graph stays
	// pristine (omitted from JSON, so pre-fault scenario files and their
	// fingerprints are unchanged).
	Topology TopologySpec `json:"topology,omitempty"`
	Run      RunParams    `json:"run,omitzero"`
}

// Family is the cross-product experiment description — the lbsweep
// graphs × algos × workloads × schedules grammar as serializable data — and
// the scenario file format: a single run is a family of singleton lists.
type Family struct {
	// Name labels the family (presets carry their preset name).
	Name string `json:"name,omitempty"`
	// Version is the file format version; Load accepts only Version (1),
	// treating an absent version as 1.
	Version int `json:"version"`

	Graphs    []GraphSpec    `json:"graphs"`
	Algos     []AlgoSpec     `json:"algos"`
	Workloads []WorkloadSpec `json:"workloads"`
	// Schedules default to a single static schedule when empty.
	Schedules []ScheduleSpec `json:"schedules,omitempty"`
	// Topologies default to a single pristine topology when empty; omitted
	// from JSON so fault-free families keep their historical fingerprints.
	Topologies []TopologySpec `json:"topologies,omitempty"`
	// Run parameters are shared by every expanded scenario; per-cell
	// overrides are applied on the expanded Scenarios directly.
	Run RunParams `json:"run,omitzero"`
}

// Normalize validates the scenario's descriptors and materializes every
// defaulted argument in place, so the descriptor is fully explicit.
func (s *Scenario) Normalize() error {
	g, err := normalizeGraph(s.Graph)
	if err != nil {
		return err
	}
	a, err := normalizeAlgo(s.Algo)
	if err != nil {
		return err
	}
	w, err := normalizeWorkload(s.Workload)
	if err != nil {
		return err
	}
	sch, err := normalizeSchedule(s.Schedule)
	if err != nil {
		return err
	}
	top, err := normalizeTopology(s.Topology)
	if err != nil {
		return err
	}
	s.Graph, s.Algo, s.Workload, s.Schedule, s.Topology = g, a, w, sch, top
	return nil
}

// Family wraps the single scenario into a one-cell family — the scenario
// file format always holds lists, so a single run serializes as singleton
// lists.
func (s Scenario) Family() *Family {
	f := &Family{
		Version:   Version,
		Graphs:    []GraphSpec{s.Graph},
		Algos:     []AlgoSpec{s.Algo},
		Workloads: []WorkloadSpec{s.Workload},
		Run:       s.Run,
	}
	if len(s.Schedule) > 0 {
		f.Schedules = []ScheduleSpec{s.Schedule}
	}
	if len(s.Topology) > 0 {
		f.Topologies = []TopologySpec{s.Topology}
	}
	return f
}

// Bind builds the live RunSpec the scenario describes.
func (s Scenario) Bind() (analysis.RunSpec, error) {
	specs, err := BindScenarios([]Scenario{s})
	if err != nil {
		return analysis.RunSpec{}, err
	}
	return specs[0], nil
}

// Normalize validates and normalizes every descriptor of the family in place.
func (f *Family) Normalize() error {
	if f.Version == 0 {
		f.Version = Version
	}
	if f.Version != Version {
		return fmt.Errorf("scenario: unsupported version %d (this build reads version %d)", f.Version, Version)
	}
	for i := range f.Graphs {
		g, err := normalizeGraph(f.Graphs[i])
		if err != nil {
			return err
		}
		f.Graphs[i] = g
	}
	for i := range f.Algos {
		a, err := normalizeAlgo(f.Algos[i])
		if err != nil {
			return err
		}
		f.Algos[i] = a
	}
	for i := range f.Workloads {
		w, err := normalizeWorkload(f.Workloads[i])
		if err != nil {
			return err
		}
		f.Workloads[i] = w
	}
	for i := range f.Schedules {
		s, err := normalizeSchedule(f.Schedules[i])
		if err != nil {
			return err
		}
		f.Schedules[i] = s
	}
	for i := range f.Topologies {
		t, err := normalizeTopology(f.Topologies[i])
		if err != nil {
			return err
		}
		f.Topologies[i] = t
	}
	return nil
}

// Scenarios expands the cross product in the sweep's nesting order: graphs
// (outermost), then algorithms, workloads, schedules, and topologies
// (innermost). An empty schedule list contributes one static schedule; an
// empty topology list contributes one pristine topology.
func (f *Family) Scenarios() []Scenario {
	schedules := f.Schedules
	if len(schedules) == 0 {
		// The fallback static schedule is empty-but-non-nil, the same
		// canonical form normalization produces, so expanded cells compare
		// DeepEqual across an emit/load round trip.
		schedules = []ScheduleSpec{{}}
	}
	topologies := f.Topologies
	if len(topologies) == 0 {
		topologies = []TopologySpec{{}}
	}
	cells := make([]Scenario, 0, len(f.Graphs)*len(f.Algos)*len(f.Workloads)*len(schedules)*len(topologies))
	for _, g := range f.Graphs {
		for _, a := range f.Algos {
			for _, w := range f.Workloads {
				for _, sch := range schedules {
					for _, top := range topologies {
						cells = append(cells, Scenario{
							Graph: g, Algo: a, Workload: w, Schedule: sch, Topology: top, Run: f.Run,
						})
					}
				}
			}
		}
	}
	return cells
}

// Bind expands and binds the family, returning the RunSpecs together with the
// expanded per-cell scenarios (for labeling). Binding shares one balancing
// graph per graph descriptor and one algorithm instance per
// (graph, algorithm) descriptor pair, the identity the sweep harness groups
// on.
func (f *Family) Bind() ([]analysis.RunSpec, []Scenario, error) {
	if err := f.Normalize(); err != nil {
		return nil, nil, err
	}
	cells := f.Scenarios()
	specs, err := BindScenarios(cells)
	if err != nil {
		return nil, nil, err
	}
	return specs, cells, nil
}

// Load reads, validates, and normalizes a scenario file. Unknown fields are
// rejected: a typo in a hand-written scenario must not silently vanish.
func Load(r io.Reader) (*Family, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f Family
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := f.Normalize(); err != nil {
		return nil, err
	}
	return &f, nil
}

// LoadFile is Load from a file path.
func LoadFile(path string) (*Family, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	fam, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return fam, nil
}

// Canonical normalizes the family and returns its canonical encoding: stable,
// indented JSON with every default and seed materialized. The same family
// always canonicalizes to the same bytes, and loading the bytes back
// canonicalizes to them again (Canonical ∘ Load ∘ Canonical is the identity on
// its image) — the property the serving layer's content-addressed archive is
// built on.
func (f *Family) Canonical() ([]byte, error) {
	if err := f.Normalize(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// Fingerprint returns the family's content address — the SHA-256 hex digest
// of its canonical bytes — together with the bytes themselves. Two families
// describing the same experiment (after normalization) share a fingerprint;
// any difference in a descriptor, seed, run parameter, or name changes it.
func (f *Family) Fingerprint() (digest string, canonical []byte, err error) {
	canonical, err = f.Canonical()
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:]), canonical, nil
}

// Write emits the canonical encoding (see Canonical), so emitted scenario
// files diff cleanly and round-trip Load ∘ Write ∘ Load losslessly.
func (f *Family) Write(w io.Writer) error {
	data, err := f.Canonical()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteFile is Write to a file path.
func (f *Family) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// String renders the canonical text-grammar spec, e.g. "random:256,8,1".
func (s GraphSpec) String() string {
	var b strings.Builder
	b.WriteString(s.Kind)
	sep := ":"
	for _, a := range s.Args {
		b.WriteString(sep)
		b.WriteString(strconv.FormatInt(a, 10))
		sep = ","
	}
	if len(s.Offsets) > 0 {
		b.WriteString(sep)
		for i, o := range s.Offsets {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(strconv.Itoa(o))
		}
	}
	return b.String()
}

// String renders the canonical text-grammar spec, e.g. "rand-extra:7".
func (s AlgoSpec) String() string { return renderKindArgs(s.Kind, s.Args) }

// String renders the canonical text-grammar spec, e.g. "point:2048".
func (s WorkloadSpec) String() string { return renderKindArgs(s.Kind, s.Args) }

// String renders the canonical text-grammar spec, e.g. "burst:20,0,4096".
func (p SchedulePart) String() string { return renderKindArgs(p.Kind, p.Args) }

// String renders the "+"-joined composition, or "none" for a static run.
func (s ScheduleSpec) String() string {
	if len(s) == 0 {
		return "none"
	}
	parts := make([]string, len(s))
	for i, p := range s {
		parts[i] = p.String()
	}
	return strings.Join(parts, "+")
}

// String renders the canonical text-grammar spec, e.g. "partition:30,16,70".
func (p TopologyPart) String() string { return renderKindArgs(p.Kind, p.Args) }

// String renders the "+"-joined composition, or "none" for a pristine run.
func (s TopologySpec) String() string {
	if len(s) == 0 {
		return "none"
	}
	parts := make([]string, len(s))
	for i, p := range s {
		parts[i] = p.String()
	}
	return strings.Join(parts, "+")
}

func renderKindArgs(kind string, args []int64) string {
	if len(args) == 0 {
		return kind
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = strconv.FormatInt(a, 10)
	}
	return kind + ":" + strings.Join(parts, ",")
}
