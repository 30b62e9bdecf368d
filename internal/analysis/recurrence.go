package analysis

import (
	"slices"

	"detlb/internal/core"
)

// recurrenceWindowCap caps how far back the cycle detector looks: no
// checkpoint is compared once it is more than this many rounds old, and a
// run keeps at most this many observations, so periods up to this long are
// found and longer ones are not.
const recurrenceWindowCap = 1 << 12

// recurrenceSlots is the number of state checkpoints the detector holds.
const recurrenceSlots = 4

// observation is one round's (value, min, max) as the round loop measures it.
type observation struct{ disc, lo, hi int64 }

// checkpoint is one slot of the detector: the round whose full state the
// slot holds (0 while the slot is empty) and that round's observation.
type checkpoint struct {
	round int
	o     observation
}

// recurrence finds the cycle a core.Recurrent model's full state enters. It
// holds recurrenceSlots checkpoints of the state, one every spacing rounds
// from round 1 on, the spacing starting at 1. When a checkpoint is due and
// every slot holds one at a multiple of the spacing, the spacing doubles and
// that round takes none; the next checkpoint evicts the slots off the new
// spacing. Once the spacing is recurrenceWindowCap/recurrenceSlots, a due
// checkpoint evicts the oldest, which is then exactly recurrenceWindowCap
// rounds old: the slots become a ring. So the checkpoint rounds are 1, 2, 3,
// then 2^a and 3·2^a up to recurrenceWindowCap, then every multiple of
// recurrenceWindowCap/recurrenceSlots, and checkpoint s stays live for at
// least min(s, recurrenceWindowCap) rounds.
//
// Every stepped round compares the state with each live checkpoint whose
// observation equals the round's (equal states measure equal, so the filter
// is free and StateEquals stays the exact test). The first round r whose
// state equals checkpoint s closes the cycle: the run is periodic from s on,
// with period λ = r − s exactly (a checkpoint stays live from its round until
// it is evicted, so a multiple of λ would have matched λ rounds after s).
// Every later round's observation is one the cycle already holds, so the
// round loop replays it instead of stepping and reports the cycle in
// RunResult.Cycle.
//
// A state that enters its cycle at round μ with period λ ≤
// recurrenceWindowCap thus closes it by round s + λ, s the first checkpoint
// round ≥ max(μ, λ, 1); before the ring s < 3/2·max(μ, λ, 1). A single
// snapshot after rounds 1, 2, 4, … (Brent's detection) closes it at
// 2^⌈log₂ max(μ,λ,1)⌉ + λ, up to 2·max(μ, λ) + λ; the checkpoints include
// those rounds, each live at least as long, so they never close it later.
// The first return is at max(μ, 1) + λ.
//
// The observations of the last min(horizon, recurrenceWindowCap) rounds sit
// in a ring, which covers the oldest live checkpoint's round on. The
// detector allocates its buffers once per run, never per round.
type recurrence struct {
	rec      core.Recurrent // nil when the run is not detected
	slots    [recurrenceSlots]checkpoint
	states   []int64 // slot i's state at [i·width, (i+1)·width)
	width    int     // the full state's length
	spacing  int     // rounds between checkpoints
	nextSnap int     // the round whose state is checkpointed next
	obs      []observation
	start    int // the cycle's checkpoint round once found
	period   int // the cycle length once found, 0 before
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
	return recurrence{rec: rec, spacing: 1, nextSnap: 1, obs: make([]observation, min(horizon, recurrenceWindowCap))}
}

// record folds in the observation of the round the model just stepped to.
func (c *recurrence) record(round int, o observation) {
	c.obs[round%len(c.obs)] = o
	for i, k := range c.slots {
		if k.round > 0 && k.o == o && c.rec.StateEquals(c.slot(i)) {
			c.start, c.period = k.round, round-k.round
			return
		}
	}
	if round < c.nextSnap {
		return
	}
	c.nextSnap = round + c.spacing
	free := c.evict()
	if free < 0 {
		// Every slot is on the spacing: double it, so the next checkpoint
		// comes the doubled spacing after the newest.
		c.spacing *= 2
		return
	}
	if c.states == nil {
		// The first checkpoint gives the state's length, which sizes the
		// buffer for every slot.
		s := c.rec.AppendState(nil)
		c.width = len(s)
		c.states = slices.Grow(s, (recurrenceSlots-1)*c.width)[:recurrenceSlots*c.width]
	} else {
		c.rec.AppendState(c.slot(free)[:0])
	}
	c.slots[free] = checkpoint{round, o}
}

// slot returns slot i's state, capped so appending to it stays in place.
func (c *recurrence) slot(i int) []int64 {
	return c.states[i*c.width : (i+1)*c.width : (i+1)*c.width]
}

// evict makes room for a due checkpoint and returns the free slot, or -1
// when the spacing should double instead. The slots off the spacing are
// emptied, and an empty slot is free; with none, the oldest slot is, once
// the spacing has reached its ring width.
func (c *recurrence) evict() int {
	free := -1
	for i := range c.slots {
		if c.slots[i].round%c.spacing != 0 {
			c.slots[i].round = 0
		}
		if c.slots[i].round == 0 && free < 0 {
			free = i
		}
	}
	if free >= 0 || c.spacing < recurrenceWindowCap/recurrenceSlots {
		return free
	}
	oldest := 0
	for i, k := range c.slots {
		if k.round < c.slots[oldest].round {
			oldest = i
		}
	}
	return oldest
}

// cycle reports the found cycle, its value extremes taken over the period's
// observations.
func (c *recurrence) cycle() *Cycle {
	first := c.replay(c.start + 1)
	cy := &Cycle{Start: c.start, Period: c.period, Min: first.disc, Max: first.disc}
	for r := c.start + 1; r <= c.start+c.period; r++ {
		o := c.obs[r%len(c.obs)]
		cy.Min, cy.Max = min(cy.Min, o.disc), max(cy.Max, o.disc)
	}
	return cy
}

// replay returns the observation of a round after the cycle was found.
func (c *recurrence) replay(round int) observation {
	return c.obs[(c.start+1+(round-c.start-1)%c.period)%len(c.obs)]
}
