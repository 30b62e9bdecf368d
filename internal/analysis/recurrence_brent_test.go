package analysis

import (
	"reflect"
	"testing"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// brentRecurrence is Brent's cycle detection over a core.Recurrent model's
// full state, the detector the checkpoint slots replaced, kept as the
// reference they must never close later than. It snapshots the state after
// power-of-two rounds (every recurrenceWindowCap rounds once the power
// reaches the cap) and keeps the observations made since. Once the state
// equals the snapshot again, the run is periodic from the snapshot on.
type brentRecurrence struct {
	rec       core.Recurrent // nil when the run is not detected
	snap      []int64
	snapRound int // the round snap was taken after; 0 before the first
	nextSnap  int // the round whose state is snapshotted next
	obs       []observation
	period    int // the cycle length once found, 0 before
}

// newBrentRecurrence returns Brent's detector for a run of horizon rounds.
func newBrentRecurrence(rec core.Recurrent, horizon int) brentRecurrence {
	// The window opened after round s holds at most min(s, horizon − s) ≤
	// horizon/2 observations before the run ends.
	return brentRecurrence{rec: rec, nextSnap: 1, obs: make([]observation, 0, min(horizon/2, recurrenceWindowCap))}
}

// record folds in the observation of the round the model just stepped to.
func (c *brentRecurrence) record(round int, o observation) {
	if c.snapRound > 0 {
		c.obs = append(c.obs, o)
		if c.rec.StateEquals(c.snap) {
			c.period = round - c.snapRound
			return
		}
	}
	if round == c.nextSnap {
		c.snap = c.rec.AppendState(c.snap[:0])
		c.obs = c.obs[:0]
		c.snapRound = round
		c.nextSnap = round + min(round, recurrenceWindowCap)
	}
}

// cycle reports the found cycle, its value extremes taken over the period's
// observations.
func (c *brentRecurrence) cycle() *Cycle {
	cy := &Cycle{Start: c.snapRound, Period: c.period, Min: c.obs[0].disc, Max: c.obs[0].disc}
	for _, o := range c.obs {
		cy.Min, cy.Max = min(cy.Min, o.disc), max(cy.Max, o.disc)
	}
	return cy
}

// replay returns the observation of a round after the cycle was found.
func (c *brentRecurrence) replay(round int) observation {
	return c.obs[(round-c.snapRound-1)%c.period]
}

// lassoBuilder builds lassos: one node walking a tail of mu states into a
// cycle of lambda, so its full state enters a cycle at round mu with period
// lambda. The node's load is the position modulo lassoValues, so states
// that differ often measure the same and the detector's observation filter
// passes them on to StateEquals.
type lassoBuilder struct{ mu, lambda int }

const lassoValues = 5

func (*lassoBuilder) Name() string             { return "lasso" }
func (*lassoBuilder) DefaultHorizon(n int) int { return 1 }
func (lb *lassoBuilder) New(x1 []int64, workers int) (core.Model, error) {
	return &lasso{mu: lb.mu, lambda: lb.lambda, load: []int64{0}}, nil
}

type lasso struct {
	mu, lambda int
	pos, round int
	load       []int64
}

var _ core.Recurrent = (*lasso)(nil)

func (l *lasso) N() int         { return 1 }
func (l *lasso) State() []int64 { return l.load }
func (l *lasso) Round() int     { return l.round }
func (l *lasso) Close()         {}
func (l *lasso) Step() error {
	if l.pos++; l.pos == l.mu+l.lambda {
		l.pos = l.mu
	}
	l.load[0] = int64(l.pos % lassoValues)
	l.round++
	return nil
}
func (l *lasso) Recurrent() bool                 { return true }
func (l *lasso) AppendState(dst []int64) []int64 { return append(dst, int64(l.pos)) }
func (l *lasso) StateEquals(snap []int64) bool   { return snap[0] == int64(l.pos) }

// cycleDetector is either detector, as closeCycle drives it.
type cycleDetector interface {
	record(round int, o observation)
	closed() bool
	cycle() *Cycle
}

func (c *recurrence) closed() bool      { return c.period > 0 }
func (c *brentRecurrence) closed() bool { return c.period > 0 }

// closeCycle steps m for at most horizon rounds under det, observing its
// first node's load, and returns the round det closes a cycle at and the
// cycle, or 0 and nil when it closes none.
func closeCycle(m core.Model, det cycleDetector, horizon int) (int, *Cycle) {
	for round := 1; round <= horizon; round++ {
		if err := m.Step(); err != nil {
			panic(err)
		}
		v := m.State()[0]
		if det.record(round, observation{v, v, v}); det.closed() {
			return round, det.cycle()
		}
	}
	return 0, nil
}

// lassoCloses steps fresh lassos for at most horizon rounds under the
// checkpoint detector and under Brent's, and returns the round each closes
// the cycle at (0 for none) and the checkpoint detector's cycle.
func lassoCloses(lb *lassoBuilder, horizon int) (slots, brent int, cy *Cycle) {
	m, _ := lb.New(nil, 0)
	c := newRecurrence(RunSpec{}, m, horizon)
	slots, cy = closeCycle(m, &c, horizon)
	m, _ = lb.New(nil, 0)
	b := newBrentRecurrence(m.(core.Recurrent), horizon)
	brent, _ = closeCycle(m, &b, horizon)
	return slots, brent, cy
}

// checkpointAtLeast returns the first round ≥ m the detector checkpoints:
// 1, 2, 3, then 2^a and 3·2^a up to recurrenceWindowCap, then every
// multiple of recurrenceWindowCap/recurrenceSlots.
func checkpointAtLeast(m int) int {
	if ring := recurrenceWindowCap / recurrenceSlots; m > recurrenceWindowCap {
		return (m + ring - 1) / ring * ring
	}
	p := 1
	for p < m {
		p *= 2
	}
	if p >= 4 && 3*p/4 >= m {
		return 3 * p / 4
	}
	return p
}

// lassoHorizon is a horizon past the round Brent's detector closes a
// lasso's cycle, with at least a period to replay after it.
func lassoHorizon(mu, lambda int) int {
	p := 1
	for p < max(mu, lambda) {
		p *= 2
	}
	return p + 2*lambda + 1
}

// lassoCases returns the (μ, λ) pairs the lasso tests cover: μ from 0 to
// 300 and λ from 1 to 300, each in steps of step (a tenth as many steps
// under the race detector), and the three periods around the detection cap.
func lassoCases(step int) [][2]int {
	if raceEnabled {
		step *= 10
	}
	lambdas := []int{recurrenceWindowCap - 1, recurrenceWindowCap, recurrenceWindowCap + 1}
	for lambda := 1; lambda <= 300; lambda += step {
		lambdas = append(lambdas, lambda)
	}
	var cases [][2]int
	for _, lambda := range lambdas {
		for mu := 0; mu <= 300; mu += step {
			cases = append(cases, [2]int{mu, lambda})
		}
	}
	return cases
}

// TestCheckpointsCloseByBound: on a lasso entering a cycle of period λ at
// round μ, for every μ ≤ 300 and λ ≤ 300 and the periods around the cap
// (lassoCases),
// the checkpoint detector reports exactly that cycle from a round on it,
// closes it no later than Brent's single power-of-two snapshot, and by the
// bound of the recurrence doc: s + λ for s the first checkpoint round ≥
// max(μ, λ, 1). A period past the cap is never found.
func TestCheckpointsCloseByBound(t *testing.T) {
	for _, c := range lassoCases(1) {
		mu, lambda := c[0], c[1]
		horizon := lassoHorizon(mu, lambda)
		got, brent, cy := lassoCloses(&lassoBuilder{mu, lambda}, horizon)
		if lambda > recurrenceWindowCap {
			if got != 0 || brent != 0 {
				t.Fatalf("μ=%d λ=%d: closed at %d (Brent %d) past the cap", mu, lambda, got, brent)
			}
			continue
		}
		if got == 0 || brent == 0 {
			t.Fatalf("μ=%d λ=%d: no cycle within %d rounds (Brent closes at %d)", mu, lambda, horizon, brent)
		}
		if cy.Start < mu || cy.Period != lambda || cy.Start+cy.Period != got {
			t.Fatalf("μ=%d λ=%d: cycle %+v closed at round %d", mu, lambda, *cy, got)
		}
		if bound := checkpointAtLeast(max(mu, lambda, 1)) + lambda; got > brent || got > bound {
			t.Fatalf("μ=%d λ=%d: closed at round %d, Brent at %d, bound %d", mu, lambda, got, brent, bound)
		}
	}
}

// TestLassoMatchesStepping: lassos run through the round loop, μ and λ up
// to 300 in steps of 13 and the periods around the cap, match stepping
// every round (checkLasso).
func TestLassoMatchesStepping(t *testing.T) {
	for _, c := range lassoCases(13) {
		checkLasso(t, c[0], c[1], lassoHorizon(c[0], c[1]), 0)
	}
}

// FuzzCycleDetectorMatchesBrent: a lasso of any tail and period up to a
// little past the cap, run for any horizon under any patience, matches
// stepping every round, and its cycle detection matches the lasso and
// Brent's (checkLasso).
func FuzzCycleDetectorMatchesBrent(f *testing.F) {
	f.Fuzz(func(t *testing.T, mu, lambda, horizon uint16, patience uint8) {
		checkLasso(t, int(mu), 1+int(lambda)%(recurrenceWindowCap+64), 1+int(horizon), int(patience))
	})
}

// checkLasso runs the lasso (μ, λ) through the round loop for at most
// horizon rounds under patience and holds it to stepping every round
// (checkMatchesStepping). The run steps exactly to the round the detector
// closes the cycle at, or through all its rounds when it closes none; a
// closed cycle is the lasso's (Start ≥ μ, Period λ), closed no later than
// Brent's detector and by the recurrence doc's bound, and a run long enough
// for either to close one closes it.
func checkLasso(t *testing.T, mu, lambda, horizon, patience int) {
	t.Helper()
	lb := &lassoBuilder{mu, lambda}
	spec := RunSpec{
		Balancing: graph.Lazy(graph.Cycle(3)), Model: lb, Metric: value{},
		Initial: []int64{0}, MaxRounds: horizon, Patience: patience,
	}
	res := checkMatchesStepping(t, spec)
	m, _ := lb.New(nil, 0)
	_, stepped := runStepped(spec, m)
	got, brent, cy := lassoCloses(lb, res.Rounds)
	if !reflect.DeepEqual(res.Cycle, cy) {
		t.Fatalf("μ=%d λ=%d: run reports cycle %+v, the detector %+v", mu, lambda, res.Cycle, cy)
	}
	bound := checkpointAtLeast(max(mu, lambda, 1)) + lambda
	if got == 0 {
		if stepped != res.Rounds || brent != 0 || lambda <= recurrenceWindowCap && bound <= res.Rounds {
			t.Fatalf("μ=%d λ=%d: no cycle in %d rounds (stepped %d), Brent closes at %d, bound %d",
				mu, lambda, res.Rounds, stepped, brent, bound)
		}
		return
	}
	if stepped != got || cy.Start < mu || cy.Period != lambda || brent > 0 && got > brent || got > bound {
		t.Fatalf("μ=%d λ=%d: cycle %+v closed at round %d (stepped %d), Brent at %d, bound %d",
			mu, lambda, *cy, got, stepped, brent, bound)
	}
}

// TestDetectorAllocatesNothingPerRound: a detected run allocates as much
// over 12,000 rounds as over 3,000, with a period past the cap that keeps
// the checkpoints cycling through their ring the whole way.
func TestDetectorAllocatesNothingPerRound(t *testing.T) {
	allocs := func(horizon int) float64 {
		spec := RunSpec{
			Balancing: graph.Lazy(graph.Cycle(3)), Model: &lassoBuilder{10, recurrenceWindowCap + 1},
			Metric: value{}, Initial: []int64{0}, MaxRounds: horizon,
		}
		return testing.AllocsPerRun(3, func() {
			if res := Run(spec); res.Cycle != nil || res.Rounds != horizon {
				t.Fatalf("run of %d rounds: cycle %+v after %d", horizon, res.Cycle, res.Rounds)
			}
		})
	}
	if short, long := allocs(3000), allocs(12000); long != short {
		t.Fatalf("%v allocations over 12,000 rounds, %v over 3,000", long, short)
	}
}
