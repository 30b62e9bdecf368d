package main

// The traced replay: the server's pipeline re-run in process on a fixed
// subset of the generated requests, calling each layer's public function
// in the order serve calls it and recording a span around every call. The
// spans come from this file, not from inside the program.

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/scenario"
	"detlb/internal/spectral"
)

// Stage span names, in pipeline order.
const (
	stLoad        = "scenario.Load"
	stFingerprint = "Family.Fingerprint"
	stBind        = "Family.Bind"
	stRebind      = "scenario.BindScenarios"
	stGap         = "spectral.Gap"
	stSweep       = "analysis.SweepContext"
	stEncode      = "archive.BuildResultDoc"
	stPut         = "Store.Put"
	stIndexAdd    = "Index.Add"
	stGetResult   = "Store.GetResult"
	stParseQuery  = "archive.ParseQuerySpec"
	stQuery       = "Index.Query"
	stEncodeJSON  = "archive.EncodeJSON"
	stRequest     = "request"
)

// tracer records spans in memory. A nil tracer records nothing, so the same
// pipeline code runs traced and untraced.
type tracer struct {
	origin time.Time
	spans  []span
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.origin)})
	return id
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.origin)
	}
}

// pipeline holds what the replayed requests read and write.
type pipeline struct {
	tr    *tracer
	store *archive.Store // Put target of cold requests, GetResult source of hits
	index *archive.Index // Index.Add target and Query source
}

// coldResult is what a replayed cold request produced.
type coldResult struct {
	digest     string
	doc        []byte
	nodeRounds int64
}

// cold replays a cold POST and its execution: decode, fingerprint, the
// POST-time validation bind, the executor's rebind, the gap of each bound
// graph (which warms the memo, so the sweep that follows is rounds only),
// the sweep, result encoding, and — with a store — Put and Index.Add.
func (p *pipeline) cold(req int, body []byte) (coldResult, error) {
	tr := p.tr
	root := tr.begin(req, -1, stRequest)
	defer tr.end(root)

	id := tr.begin(req, root, stLoad)
	fam, err := scenario.Load(bytes.NewReader(body))
	tr.end(id)
	if err != nil {
		return coldResult{}, err
	}
	id = tr.begin(req, root, stFingerprint)
	digest, canonical, err := fam.Fingerprint()
	tr.end(id)
	if err != nil {
		return coldResult{}, err
	}
	id = tr.begin(req, root, stBind)
	_, cells, err := fam.Bind()
	tr.end(id)
	if err != nil {
		return coldResult{}, err
	}
	id = tr.begin(req, root, stRebind)
	specs, err := scenario.BindScenarios(cells)
	tr.end(id)
	if err != nil {
		return coldResult{}, err
	}
	seen := map[*graph.Balancing]bool{}
	for _, spec := range specs {
		if !seen[spec.Balancing] {
			seen[spec.Balancing] = true
			id = tr.begin(req, root, stGap)
			spectral.Gap(spec.Balancing)
			tr.end(id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	id = tr.begin(req, root, stSweep)
	results := analysis.SweepContext(ctx, specs, analysis.SweepOptions{})
	tr.end(id)
	metas := make([]scenario.CellColumns, len(cells))
	for i, c := range cells {
		metas[i] = c.Columns()
	}
	id = tr.begin(req, root, stEncode)
	doc, _, err := archive.BuildResultDoc(fam.Name, digest, metas, specs, results)
	tr.end(id)
	if err != nil {
		return coldResult{}, err
	}
	if p.store != nil {
		id = tr.begin(req, root, stPut)
		_, err = p.store.Put(digest, canonical, doc)
		tr.end(id)
		if err != nil {
			return coldResult{}, err
		}
		id = tr.begin(req, root, stIndexAdd)
		err = p.index.Add(digest, canonical, doc)
		tr.end(id)
		if err != nil {
			return coldResult{}, err
		}
	}
	return coldResult{digest: digest, doc: doc, nodeRounds: nodeRoundsOf(specs, results)}, nil
}

// hit replays a cache hit: decode, fingerprint, and the archive read.
func (p *pipeline) hit(req int, body []byte) ([]byte, error) {
	tr := p.tr
	root := tr.begin(req, -1, stRequest)
	defer tr.end(root)
	id := tr.begin(req, root, stLoad)
	fam, err := scenario.Load(bytes.NewReader(body))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(req, root, stFingerprint)
	digest, _, err := fam.Fingerprint()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(req, root, stGetResult)
	doc, err := p.store.GetResult(digest)
	tr.end(id)
	return doc, err
}

// querySpec splits a query string into the grammar's lists, the way the
// server's handler reads its URL.
func querySpec(qs string) (archive.QuerySpec, error) {
	v, err := url.ParseQuery(qs)
	if err != nil {
		return archive.QuerySpec{}, fmt.Errorf("query %q: %w", qs, err)
	}
	return archive.QuerySpec{Where: v["where"], Select: v["select"], Group: v["group"], Aggs: v["agg"]}, nil
}

// query replays an archive query: parse, evaluate, encode.
func (p *pipeline) query(req int, qs string) ([]byte, error) {
	tr := p.tr
	root := tr.begin(req, -1, stRequest)
	defer tr.end(root)
	spec, err := querySpec(qs)
	if err != nil {
		return nil, err
	}
	id := tr.begin(req, root, stParseQuery)
	q, err := archive.ParseQuerySpec(spec)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(req, root, stQuery)
	res, err := p.index.Query(q)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	id = tr.begin(req, root, stEncodeJSON)
	err = archive.EncodeJSON(&buf, res)
	tr.end(id)
	return buf.Bytes(), err
}

// item is one replayed operation. id labels its spans: the window sample
// index for measured requests, so traced and untraced figures of the same
// request can be paired.
type item struct {
	id  int
	req request
	// readBack, when positive, marks a closed loop's read-your-write query:
	// readBackQueries' query readBack-1 on the cold request replayed just
	// before it.
	readBack int
}

// replayed is one item run through both passes.
type replayed struct {
	id         int
	kind       kind
	untraced   time.Duration
	traced     time.Duration
	nodeRounds int64
	docBytes   int
}

// replaySet runs each item untraced and traced, back to back, so host drift
// hits both passes alike. Cold requests write to a fresh store per pass, so
// both passes take the create path; hits and mix queries read src, the
// server's archive as the window left it.
func replaySet(dir string, src *archive.Store, items []item, origin time.Time) (*tracer, []replayed, error) {
	tr := &tracer{origin: origin}
	srcIndex := archive.NewIndex(src)
	if err := srcIndex.Refresh(); err != nil {
		return nil, nil, err
	}
	var passes [2]pipeline
	for i := range passes {
		st, err := archive.Open(filepath.Join(dir, fmt.Sprintf("pass%d", i)))
		if err != nil {
			return nil, nil, err
		}
		passes[i] = pipeline{store: st, index: archive.NewIndex(st)}
	}
	passes[1].tr = tr
	var out []replayed
	var lastDigest [2]string
	for n, it := range items {
		rec := replayed{id: it.id, kind: it.req.Kind}
		for k := range passes {
			// Alternate which pass goes first, so neither inherits a warmer
			// heap or cache from the other more often.
			pass := (n + k) % 2
			p := passes[pass]
			start := time.Now()
			var err error
			switch {
			case it.req.Kind == kindHit:
				p.store = src
				_, err = p.hit(it.id, it.req.Body)
			case it.readBack > 0:
				_, err = p.query(it.id, readBackQueries(lastDigest[pass])[it.readBack-1])
			case it.req.Kind == kindQuery:
				p.index = srcIndex
				_, err = p.query(it.id, it.req.Query)
			default:
				var c coldResult
				c, err = p.cold(it.id, it.req.Body)
				rec.nodeRounds, rec.docBytes, lastDigest[pass] = c.nodeRounds, len(c.doc), c.digest
			}
			if err != nil {
				return nil, nil, fmt.Errorf("replay request %d (%s): %w", it.id, it.req.Kind, err)
			}
			if pass == 0 {
				rec.untraced = time.Since(start)
			} else {
				rec.traced = time.Since(start)
			}
		}
		out = append(out, rec)
	}
	return tr, out, nil
}

// coreStep times a bare core.NewEngine + Engine.Step loop: nanoseconds per
// node per round, and heap allocations per round (the engine promises 0).
// The median of several repetitions is reported.
func coreStep(g scenario.GraphSpec, a scenario.AlgoSpec, w scenario.WorkloadSpec, workers int) (nsPerNode, allocs float64, err error) {
	b, err := g.Bind()
	if err != nil {
		return 0, 0, err
	}
	algo, err := a.Bind(b)
	if err != nil {
		return 0, 0, err
	}
	x, err := w.Bind(b.N())
	if err != nil {
		return 0, 0, err
	}
	eng, err := core.NewEngine(b, algo, x, core.WithWorkers(workers))
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	const nodeSteps = 1 << 21
	steps := max(16, nodeSteps/b.N())
	for range 16 {
		if err := eng.Step(); err != nil {
			return 0, 0, err
		}
	}
	var reps, allocReps []float64
	var m0, m1 runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for range steps {
			if err := eng.Step(); err != nil {
				return 0, 0, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		reps = append(reps, float64(elapsed.Nanoseconds())/float64(steps*b.N()))
		allocReps = append(allocReps, float64(m1.Mallocs-m0.Mallocs)/float64(steps))
	}
	return median(reps), median(allocReps), nil
}

// stageStats aggregates a traced replay into per-request stage self times.
type stageStats struct {
	// perReq maps request → stage name → summed self time and call count.
	perReq map[int]map[string]stageAcc
	kinds  map[int]kind
}

type stageAcc struct {
	self  time.Duration
	calls int
}

func newStageStats(tr *tracer, recs []replayed) stageStats {
	st := stageStats{perReq: map[int]map[string]stageAcc{}, kinds: map[int]kind{}}
	for _, r := range recs {
		st.kinds[r.id] = r.kind
		st.perReq[r.id] = map[string]stageAcc{}
	}
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		if s.Name == stRequest {
			continue
		}
		acc := st.perReq[s.Req][s.Name]
		acc.self += self[i]
		acc.calls++
		st.perReq[s.Req][s.Name] = acc
	}
	return st
}

// reqsOf lists the replayed requests of the given kinds, in order.
func (st stageStats) reqsOf(kinds ...kind) []int {
	var out []int
	for req, k := range st.kinds {
		for _, want := range kinds {
			if k == want {
				out = append(out, req)
			}
		}
	}
	sort.Ints(out)
	return out
}

// medianMs is the median over reqs of the summed self time of the named
// stages; 0 when reqs is empty (the stage is not on this workload's path).
func (st stageStats) medianMs(reqs []int, names ...string) float64 {
	var xs []float64
	for _, r := range reqs {
		var sum time.Duration
		for _, n := range names {
			sum += st.perReq[r][n].self
		}
		xs = append(xs, ms(sum))
	}
	return median(xs)
}

// medianCalls is the median over reqs of how many times the named stages
// ran per request.
func (st stageStats) medianCalls(reqs []int, names ...string) float64 {
	var xs []float64
	for _, r := range reqs {
		c := 0
		for _, n := range names {
			c += st.perReq[r][n].calls
		}
		xs = append(xs, float64(c))
	}
	return median(xs)
}

// totalMs is the self time of the named stages summed over reqs.
func (st stageStats) totalMs(reqs []int, names ...string) float64 {
	var sum time.Duration
	for _, r := range reqs {
		for _, n := range names {
			sum += st.perReq[r][n].self
		}
	}
	return ms(sum)
}

// stageSum is the summed self time of every stage of one request.
func (st stageStats) stageSum(req int) time.Duration {
	var sum time.Duration
	for _, acc := range st.perReq[req] {
		sum += acc.self
	}
	return sum
}

// share is the named stages' fraction of the stage sum over reqs.
func (st stageStats) share(reqs []int, names ...string) float64 {
	var all time.Duration
	for _, r := range reqs {
		all += st.stageSum(r)
	}
	if all == 0 {
		return 0
	}
	return st.totalMs(reqs, names...) / ms(all)
}

var (
	scenarioStages = []string{stLoad, stFingerprint, stBind, stRebind}
	archiveStages  = []string{stEncode, stPut, stIndexAdd, stGetResult, stParseQuery, stQuery, stEncodeJSON}
	queryStages    = []string{stParseQuery, stQuery, stEncodeJSON}
)
