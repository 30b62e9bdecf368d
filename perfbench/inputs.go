package main

// Request generation. Every input is a pure function of the workload seed
// (and, for the open loop, of --seconds, which sets the schedule length), so
// the same seed offers the same requests and inputs.digest proves it. The
// set-up inputs (hot set and warm-up) are drawn from a fixed warm-up seed
// instead, so every run sets up the same work and setup_s compares like with
// like. The server only ever sees the scenario bodies and query strings made
// here.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"detlb/internal/scenario"
)

type kind int

const (
	// kindCold is a POST of a family no one has run: the whole cold path.
	kindCold kind = iota
	// kindHit is a POST of an archived family: the cache-hit path.
	kindHit
	// kindQuery is a GET /v1/archive/query.
	kindQuery
	// kindWrite is serve-mix's minority cold POST of a small dynamic family.
	kindWrite
)

func (k kind) String() string {
	return [...]string{"cold", "hit", "query", "write"}[k]
}

// request is one generated operation. At is its send time relative to the
// window start (open loop only).
type request struct {
	Kind  kind
	Body  []byte
	Query string
	At    time.Duration
}

// inputs is everything a workload sends: hot families archived during
// set-up, a fixed warm-up that is not part of the measured set, and the
// measured requests.
type inputs struct {
	Hot  [][]byte
	Warm []request
	Reqs []request
}

const (
	// closedLoopPerSecond sizes a closed loop's request list: far more than
	// the window can use at today's speed, so a faster program never runs
	// out of fresh families.
	closedLoopPerSecond = 100
	// serveMixRate is serve-mix's offered rate in requests per second, well
	// below saturation of a 2-core host (about a quarter of one core).
	serveMixRate = 200
	// hotFamilies × 20 cells is the archive serve-mix queries and hits:
	// about 1000 cells, the scale of BENCH_archive's 50×20.
	hotFamilies = 50
	// hypercubeRounds fixes kernel-hypercube's work per POST: 2 cells ×
	// 4096 nodes × this many rounds, with no target and no patience.
	hypercubeRounds = 400
	// closedWarmFamilies is a closed loop's warm-up: this many families on
	// graph seeds drawn from the warm-up range, enough that no one graph's
	// power iteration sets the set-up time.
	closedWarmFamilies = 6
	// warmSeedBase seeds the set-up draws and separates their graph seeds
	// from measured ones, which are drawn at or above measuredSeedBase, so
	// no set-up family can turn a measured cold POST into a cache hit.
	warmSeedBase     = 1
	measuredSeedBase = 1 << 40
	// seedSpan is the width of each seed range; it keeps the warm-up range
	// [warmSeedBase, warmSeedBase+seedSpan) clear of the measured one.
	seedSpan = 1 << 39
)

// seeds draws graph and load seeds that never repeat within one run, so
// every "fresh" family really is a cache miss.
type seeds struct {
	rng  *rand.Rand
	base int64
	seen map[int64]bool
}

func newSeeds(rng *rand.Rand, base int64) *seeds {
	return &seeds{rng: rng, base: base, seen: map[int64]bool{}}
}

func (s *seeds) next() int64 {
	for {
		v := s.base + s.rng.Int63n(seedSpan)
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// family parses a family in the text grammar and returns its canonical
// bytes. The grammar strings are the benchmark's constants, so a parse
// failure is a bug in this file.
func family(name, graphs, algos, workloads, schedules, topologies string, run scenario.RunParams) []byte {
	fam, err := scenario.ParseFamily(graphs, algos, workloads, schedules, topologies)
	if err != nil {
		panic(fmt.Sprintf("perfbench: family %s: %v", name, err))
	}
	fam.Name = name
	fam.Run = run
	body, err := fam.Canonical()
	if err != nil {
		panic(fmt.Sprintf("perfbench: family %s: %v", name, err))
	}
	return body
}

func target(d int64) *int64 { return &d }

// expanderFamily has expander-headline's shape on a fresh graph seed: the
// same three sizes, algorithms, load and patience.
func expanderFamily(s int64) []byte {
	return family("cold-expander",
		fmt.Sprintf("random:128,8,%d;random:256,8,%d;random:512,8,%d", s, s, s),
		"send-floor;rotor-router;biased", "point", "", "",
		scenario.RunParams{Patience: 2048})
}

// hypercubeFamily runs a fixed number of rounds on hypercube:12 from a
// fresh random initial load.
func hypercubeFamily(s int64) []byte {
	return family("kernel-hypercube", "hypercube:12", "rotor-router;send-floor",
		fmt.Sprintf("random:1024,%d", s), "", "",
		scenario.RunParams{Rounds: hypercubeRounds})
}

// hotFamily is one of serve-mix's archived families: 5 graphs × 2
// algorithms × 2 schedules = 20 small cells, half of them with a shock so
// the recovery aggregates have values.
func hotFamily(i int, s int64, burst int64) []byte {
	return family(fmt.Sprintf("mix-hot-%02d", i),
		fmt.Sprintf("cycle:32;torus:6,2;hypercube:5;random:32,4,%d;complete:16", s),
		"send-floor;rotor-router", "point:512",
		fmt.Sprintf("none;burst:10,0,%d", burst), "",
		scenario.RunParams{Rounds: 60, Target: target(8)})
}

// writeFamily is serve-mix's cold write: a unique small dynamic family on a
// fresh 64-node graph, shaped like shock-recovery, link-failure-recovery or
// majority-vs-rotor in turn. Every shape runs a fixed number of rounds in
// every cell (the schedules and topologies keep their runs going to the
// horizon; the majority shape has no target), so each write does the same
// n·rounds work whatever the seed. Each faulted topology costs a spectral
// gap per distinct fault mask, so the link shape keeps to two masks; with
// more it would cost several times the other shapes and the write median
// would sit on the edge between two clusters.
func writeFamily(j int, rng *rand.Rand, sd *seeds) []byte {
	s := sd.next()
	g := fmt.Sprintf("random:64,8,%d", s)
	switch j % 3 {
	case 0:
		return family("mix-shock", g, "rotor-router;send-floor", "point:2048",
			fmt.Sprintf("burst:20,%d,4096;burst:10,5,1024+refill:60,2048,0;churn:15,64,%d", rng.Intn(64), s), "",
			scenario.RunParams{Rounds: 120, Target: target(16), SampleEvery: 25})
	case 1:
		return family("mix-link", g, "rotor-router;send-floor", "point:2048", "",
			fmt.Sprintf("periodic-fault:100,5,%d;partition:30,%d,70", s, 8+rng.Intn(48)),
			scenario.RunParams{Rounds: 140, Target: target(16), SampleEvery: 25})
	default:
		return family("mix-majority", g, fmt.Sprintf("rotor-router;majority:%d", s), "opinions:40", "", "",
			scenario.RunParams{Rounds: 400, SampleEvery: 20})
	}
}

var graphKinds = []string{"cycle", "torus", "hypercube", "random", "complete"}

// archiveQuery draws one of the two query shapes serve-mix mixes: a
// filtered projection, or the archive acceptance shape (count plus
// recovery-rounds mean/max grouped by graph kind).
func archiveQuery(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return url.Values{
			"where":  {"graph_kind=" + graphKinds[rng.Intn(len(graphKinds))], fmt.Sprintf("rounds>=%d", rng.Intn(60))},
			"select": {"digest", "cell", "rounds", "final_discrepancy"},
		}.Encode()
	}
	return url.Values{
		"group": {"graph_kind"},
		"agg":   {"count", "mean(shock_recovery_rounds_mean)", "max(shock_recovery_rounds_max)"},
	}.Encode()
}

// readBackQueries are the closed loops' read-your-write queries on the
// family just written: its rows, and its rounds grouped by algorithm.
func readBackQueries(digest string) []string {
	return []string{
		url.Values{
			"where":  {"digest=" + digest},
			"select": {"cell", "graph", "algo", "rounds", "final_discrepancy"},
		}.Encode(),
		url.Values{
			"where": {"digest=" + digest},
			"group": {"algo"},
			"agg":   {"count", "mean(rounds)", "max(final_discrepancy)"},
		}.Encode(),
	}
}

func genColdExpander(seed int64, seconds int) inputs {
	return genClosed(seed, seconds, expanderFamily)
}

func genKernelHypercube(seed int64, seconds int) inputs {
	return genClosed(seed, seconds, hypercubeFamily)
}

// warmDraws is the fixed source of every workload's set-up inputs.
func warmDraws() (*rand.Rand, *seeds) {
	rng := rand.New(rand.NewSource(warmSeedBase))
	return rng, newSeeds(rng, warmSeedBase)
}

// genClosed makes a closed loop's inputs: a fixed warm-up of families on
// drawn warm-up seeds and a list of fresh ones, each from its own
// never-repeating seed.
func genClosed(seed int64, seconds int, fam func(int64) []byte) inputs {
	var in inputs
	_, warmSeeds := warmDraws()
	for range closedWarmFamilies {
		in.Warm = append(in.Warm, request{Kind: kindCold, Body: fam(warmSeeds.next())})
	}
	sd := newSeeds(rand.New(rand.NewSource(seed)), measuredSeedBase)
	for range closedLoopPerSecond * seconds {
		in.Reqs = append(in.Reqs, request{Kind: kindCold, Body: fam(sd.next())})
	}
	return in
}

// mixBlock is serve-mix's traffic pattern: every block of 20 consecutive
// slots holds 17 cache hits, 2 archive queries and 1 cold write, in an order
// shuffled by the seed. Fixed counts keep the work offered per window the
// same for every seed.
var mixBlock = [20]kind{kindWrite, kindQuery, kindQuery,
	kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit,
	kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit}

// serveMixWarmBlocks is serve-mix's warm-up, in mixBlocks sent back to back:
// long enough that one set-up spans a good part of a second, so a set-up
// time averages the host's jitter instead of catching one instant of it.
const serveMixWarmBlocks = 20

// genServeMix makes serve-mix's inputs: the archived hot set and a warm-up,
// both fixed, and a schedule at serveMixRate in mixBlock's proportions. The
// hot families' runs stop at their target, so what archiving them costs
// depends on their graphs and bursts; drawn from the workload seed, it made
// set-up time a property of the seed.
func genServeMix(seed int64, seconds int) inputs {
	var in inputs
	warmRng, warmSeeds := warmDraws()
	for i := range hotFamilies {
		in.Hot = append(in.Hot, hotFamily(i, warmSeeds.next(), 256+warmRng.Int63n(1024)))
	}
	in.Warm = appendMix(nil, serveMixWarmBlocks, in.Hot, warmRng, warmSeeds)
	rng := rand.New(rand.NewSource(seed))
	in.Reqs = appendMix(nil, (serveMixRate*seconds+len(mixBlock)-1)/len(mixBlock), in.Hot, rng, newSeeds(rng, measuredSeedBase))
	return in
}

// appendMix appends blocks of mixBlock's traffic drawn from rng and sd,
// each request due at its slot of the serveMixRate schedule.
func appendMix(list []request, blocks int, hot [][]byte, rng *rand.Rand, sd *seeds) []request {
	writes := 0
	for range blocks {
		block := mixBlock
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			r := request{Kind: k, At: time.Duration(len(list)) * time.Second / serveMixRate}
			switch k {
			case kindWrite:
				r.Body = writeFamily(writes, rng, sd)
				writes++
			case kindQuery:
				r.Query = archiveQuery(rng)
			default:
				r.Body = hot[rng.Intn(len(hot))]
			}
			list = append(list, r)
		}
	}
	return list
}

// digest hashes every generated input in order, so two runs can show they
// offered the same requests.
func (in inputs) digest() string {
	h := sha256.New()
	put := func(tag string, b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write([]byte(tag))
		h.Write(n[:])
		h.Write(b)
	}
	for _, b := range in.Hot {
		put("hot", b)
	}
	for _, list := range [][]request{in.Warm, in.Reqs} {
		for _, r := range list {
			put(r.Kind.String(), r.Body)
			put("q", []byte(r.Query))
			put("at", binary.LittleEndian.AppendUint64(nil, uint64(r.At)))
		}
		put("end", nil)
	}
	return hex.EncodeToString(h.Sum(nil))
}
