package analysis

import "detlb/internal/core"

// recurrenceWindowCap caps the length of a cycle detection window, so a run
// keeps at most this many observations and finds periods up to this long.
const recurrenceWindowCap = 1 << 12

// observation is one round's (value, min, max) as the round loop measures it.
type observation struct{ disc, lo, hi int64 }

// recurrence is Brent's cycle detection over a core.Recurrent model's full
// state. It snapshots the state after power-of-two rounds (every
// recurrenceWindowCap rounds once the power reaches the cap) and keeps the
// observations made since. Once the state equals the snapshot again, the
// run is periodic from the snapshot on and every later round's observation
// is one the cycle already holds, so the round loop replays it instead of
// stepping and reports the cycle in RunResult.Cycle. It allocates its
// buffers once per run, never per round.
type recurrence struct {
	rec       core.Recurrent // nil when the run is not detected
	snap      []int64
	snapRound int // the round snap was taken after; 0 before the first
	nextSnap  int // the round whose state is snapshotted next
	obs       []observation
	period    int // the cycle length once found, 0 before
}

// newRecurrence returns a detector for a run of horizon rounds, or one with
// a nil rec when the run cannot be periodic: a schedule changes the state
// from outside the model, and a model that is not Recurrent in its current
// configuration has hidden state.
func newRecurrence(spec RunSpec, m core.Model, horizon int) recurrence {
	if spec.Events != nil || spec.Topology != nil {
		return recurrence{}
	}
	rec, ok := m.(core.Recurrent)
	if !ok || !rec.Recurrent() {
		return recurrence{}
	}
	// The window opened after round s holds at most min(s, horizon − s) ≤
	// horizon/2 observations before the run ends.
	return recurrence{rec: rec, nextSnap: 1, obs: make([]observation, 0, min(horizon/2, recurrenceWindowCap))}
}

// record folds in the observation of the round the model just stepped to.
func (c *recurrence) record(round int, o observation) {
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
func (c *recurrence) cycle() *Cycle {
	cy := &Cycle{Start: c.snapRound, Period: c.period, Min: c.obs[0].disc, Max: c.obs[0].disc}
	for _, o := range c.obs {
		cy.Min, cy.Max = min(cy.Min, o.disc), max(cy.Max, o.disc)
	}
	return cy
}

// replay returns the observation of a round after the cycle was found.
func (c *recurrence) replay(round int) observation {
	return c.obs[(round-c.snapRound-1)%c.period]
}
