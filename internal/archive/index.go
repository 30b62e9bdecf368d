package archive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"detlb/internal/scenario"
)

// Index materializes one queryable row per archived cell. Entries are
// immutable (Put never overwrites), so a row can never go stale: the index
// only ever grows, warmed incrementally by Add as the executor archives
// runs and refreshed lazily from the store for entries that predate this
// process. Every query operation re-lists the store first, so an index is
// always consistent with the directory it fronts — two processes (or two
// restarts of one) over the same archive dir build byte-identical rows.
//
// Unlike the listing path, the index never skips damage silently: an entry
// whose result document is truncated, unparseable, or inconsistent with
// its own scenario surfaces as an error wrapping ErrCorrupt.
type Index struct {
	src Archive

	mu sync.Mutex
	// digests is the indexed digest set in sorted order — the evaluation
	// order of every query, so results are independent of insertion order.
	digests []string
	rows    map[string][]row
}

// row is one archived cell flattened to its queryable columns.
type row struct {
	digest string
	name   string
	cell   int

	graph        string
	graphKind    string
	algo         string
	algoKind     string
	workload     string
	workloadKind string
	schedule     string
	topology     string
	metric       string
	errMsg       string

	n         int
	degree    int
	selfLoops int

	gap           float64
	balancingTime int
	horizon       int
	rounds        int
	initialDisc   int64
	finalDisc     int64
	minDisc       int64
	targetRound   int
	stoppedEarly  bool
	reachedTarget bool

	shocks       int
	faults       int
	seriesLen    int
	shockRecMax  int
	shockRecMean float64
	shockPeakMax int64
	faultRecMax  int
	faultRecMean float64
	faultPeakMax int64
}

// NewIndex builds an empty index over src. Rows load lazily on the first
// query (or eagerly via Refresh).
func NewIndex(src Archive) *Index {
	return &Index{src: src, rows: map[string][]row{}}
}

// Refresh scans the store and indexes every complete entry not yet seen.
// It is the eager form of the refresh every query performs implicitly.
func (ix *Index) Refresh() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.refreshLocked()
}

// Rows reports the indexed row (cell) count without refreshing — the
// serving tier's index-size gauge.
func (ix *Index) Rows() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, d := range ix.digests {
		n += len(ix.rows[d])
	}
	return n
}

// Add indexes one entry from the bytes just archived by Put, so the
// executor's write path never re-reads what it just wrote. Adding an
// already-indexed digest is a no-op (entries are immutable).
func (ix *Index) Add(digest string, scenarioJSON, resultJSON []byte) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.rows[digest]; ok {
		return nil
	}
	rows, err := rowsFrom(digest, scenarioJSON, resultJSON)
	if err != nil {
		return err
	}
	ix.insertLocked(digest, rows)
	return nil
}

// refreshLocked lists the store and loads every unseen entry. Callers hold
// ix.mu.
func (ix *Index) refreshLocked() error {
	entries, err := ix.src.List()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if _, ok := ix.rows[e.Digest]; ok {
			continue
		}
		scenarioJSON, resultJSON, err := ix.src.Get(e.Digest)
		if err != nil {
			return err
		}
		rows, err := rowsFrom(e.Digest, scenarioJSON, resultJSON)
		if err != nil {
			return err
		}
		ix.insertLocked(e.Digest, rows)
	}
	return nil
}

// insertLocked records an entry's rows, keeping digests sorted. Callers
// hold ix.mu and have checked the digest is unseen.
func (ix *Index) insertLocked(digest string, rows []row) {
	ix.rows[digest] = rows
	// Binary-search insertion keeps the slice sorted without a re-sort.
	lo, hi := 0, len(ix.digests)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.digests[mid] < digest {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ix.digests = append(ix.digests, "")
	copy(ix.digests[lo+1:], ix.digests[lo:])
	ix.digests[lo] = digest
}

// rowsFrom decodes one entry into its index rows. Any decode failure —
// unparseable scenario, truncated result document, a cell count or digest
// that contradicts the scenario — wraps ErrCorrupt: the store's bytes are
// damaged, and the index refuses to pretend the entry does not exist.
func rowsFrom(digest string, scenarioJSON, resultJSON []byte) ([]row, error) {
	fam, err := scenario.Load(bytes.NewReader(scenarioJSON))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: scenario: %v", ErrCorrupt, short(digest), err)
	}
	doc, err := decodeResultDoc(digest, resultJSON)
	if err != nil {
		return nil, err
	}
	cells := fam.Scenarios()
	if len(cells) != len(doc.Cells) {
		return nil, fmt.Errorf("%w: %s: result has %d cells, scenario expands to %d",
			ErrCorrupt, short(digest), len(doc.Cells), len(cells))
	}
	rows := make([]row, len(cells))
	for i, cell := range cells {
		rows[i] = cellRow(digest, fam.Name, i, cell.Columns(), doc.Cells[i])
	}
	return rows, nil
}

// decodeResultDoc parses and sanity-checks an archived result document.
func decodeResultDoc(digest string, resultJSON []byte) (*ResultDoc, error) {
	var doc ResultDoc
	if err := json.Unmarshal(resultJSON, &doc); err != nil {
		return nil, fmt.Errorf("%w: %s: result: %v", ErrCorrupt, short(digest), err)
	}
	if doc.Digest != digest {
		return nil, fmt.Errorf("%w: %s: result document claims digest %s",
			ErrCorrupt, short(digest), short(doc.Digest))
	}
	return &doc, nil
}

// cellRow flattens one cell to its queryable columns.
func cellRow(digest, name string, cell int, cols scenario.CellColumns, c CellResult) row {
	r := row{
		digest: digest,
		name:   name,
		cell:   cell,

		graph:        cols.Graph,
		graphKind:    cols.GraphKind,
		algo:         cols.Algo,
		algoKind:     cols.AlgoKind,
		workload:     cols.Workload,
		workloadKind: cols.WorkloadKind,
		schedule:     cols.Schedule,
		topology:     cols.Topology,
		metric:       c.Metric,
		errMsg:       c.Err,

		n:         c.N,
		degree:    c.Degree,
		selfLoops: c.SelfLoops,

		gap:           c.Gap,
		balancingTime: c.BalancingTime,
		horizon:       c.Horizon,
		rounds:        c.Rounds,
		initialDisc:   c.InitialDisc,
		finalDisc:     c.FinalDisc,
		minDisc:       c.MinDisc,
		targetRound:   c.TargetRound,
		stoppedEarly:  c.StoppedEarly,
		reachedTarget: c.ReachedTarget,

		shocks:    len(c.Shocks),
		faults:    len(c.Faults),
		seriesLen: len(c.Series),
	}
	// Recovery columns cover recovered events only: an event that never
	// recovered carries RecoveryRounds −1 and counts in neither the mean
	// nor the max (both stay 0 when nothing recovered).
	var recSum, recovered int
	for _, s := range c.Shocks {
		if s.RecoveryRounds >= 0 {
			recSum += s.RecoveryRounds
			recovered++
		}
		if s.RecoveryRounds > r.shockRecMax {
			r.shockRecMax = s.RecoveryRounds
		}
		if s.PeakDiscrepancy > r.shockPeakMax {
			r.shockPeakMax = s.PeakDiscrepancy
		}
	}
	if recovered > 0 {
		r.shockRecMean = float64(recSum) / float64(recovered)
	}
	recSum, recovered = 0, 0
	for _, f := range c.Faults {
		if f.RecoveryRounds >= 0 {
			recSum += f.RecoveryRounds
			recovered++
		}
		if f.RecoveryRounds > r.faultRecMax {
			r.faultRecMax = f.RecoveryRounds
		}
		if f.PeakDiscrepancy > r.faultPeakMax {
			r.faultPeakMax = f.PeakDiscrepancy
		}
	}
	if recovered > 0 {
		r.faultRecMean = float64(recSum) / float64(recovered)
	}
	return r
}

// short truncates a digest for error messages, tolerating junk input.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// Entries lists the indexed entries whose cells match the filters: an
// entry qualifies when at least one of its cells satisfies every filter
// clause. With no filters it is the indexed listing itself. Digest order.
func (ix *Index) Entries(where []Filter) ([]Entry, error) {
	cw, err := compileFilters(where)
	if err != nil {
		return nil, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.refreshLocked(); err != nil {
		return nil, err
	}
	out := []Entry{}
	for _, d := range ix.digests {
		rows := ix.rows[d]
		for i := range rows {
			if matchAll(cw, &rows[i]) {
				out = append(out, Entry{Digest: d, Name: rows[i].name, Cells: len(rows)})
				break
			}
		}
	}
	return out, nil
}

// errNotIndexed builds Diff's ErrNotFound for a digest absent after refresh.
func errNotIndexed(digest string) error {
	return fmt.Errorf("%w: %s", ErrNotFound, short(digest))
}
