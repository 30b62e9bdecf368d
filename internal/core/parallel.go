package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// roundWork is one model's round as a crew runs it: phase1 on chunk c, the
// half-open node range [lo, hi), then — once every chunk has finished
// phase1 — phase2 on the same chunk.
type roundWork interface {
	phase1(c, lo, hi int)
	phase2(c, lo, hi int)
}

// crew is the set of goroutines that run one model's rounds together. The
// goroutine that steps the model (the caller) always runs chunk 0 itself;
// helpers sit at seats 1, 2, … and run the chunk of their seat. A round's
// width is 1 + the helpers seated when it starts, so it can change from one
// round to the next: a helper that attaches mid-round joins the round after.
//
// A round is three rendezvous, each a short spin on an atomic word followed
// by a park on the waiter's own wake channel: the caller hands every
// participating seat a ticket, every participant meets the others at the
// barrier between the phases, and the caller waits for the helpers to
// finish phase2. Spinning first keeps the per-round handoff at the cost of a
// cache-line transfer while both goroutines are running; parking keeps an
// idle helper off the CPU.
//
// Helpers come in two kinds. A fixed crew (NewKernel, WithWorkers) spawns
// its helpers at construction and owns them until close, which waits for
// them to exit. A lending crew has one seat that any goroutine may take
// with help; it serves until the crew is closed.
type crew struct {
	seats  []seat
	seated atomic.Int32 // helpers attached; they hold seats 1..seated
	fixed  bool         // the helpers are the crew's own goroutines
	accN   int          // length of each helper seat's accumulator

	mu     sync.Mutex // orders attach against close
	closed bool
	owned  sync.WaitGroup // a fixed crew's helper goroutines

	// Round state, written by the caller before it hands out tickets and
	// read by participants after they take theirs.
	n, width int
	work     roundWork
	round    uint64

	arrived atomic.Int32  // barrier arrivals this round
	passed  atomic.Uint64 // round number of the last passed barrier
	done    atomic.Uint64 // helpers finished this round
	fault   atomic.Pointer[crewPanic]
}

// seat is one participant's rendezvous state, padded to 64 bytes (a cache
// line) so a participant polling its ticket rarely shares a line with
// another seat's words.
type seat struct {
	ticket atomic.Uint64 // round number this seat was last handed, or quitTicket
	parked atomic.Bool
	wake   chan struct{}
	acc    []int64 // the helper's accumulator when the crew runs an engine
	_      [16]byte
}

// quitTicket is the ticket close hands every seat: the helper returns.
const quitTicket = ^uint64(0)

// crewPanic carries the first panic of a round to the caller, which
// re-raises it once every participant has finished the round.
type crewPanic struct{ v any }

// spinChecks bounds how many times a waiter polls its condition before it
// parks: about 150 µs on a 2-CPU virtualized Xeon host. The window must
// outlast a park's wake-up, not just a round's imbalance: once one waiter
// parks, its partner waits a wake-up latency for it and parks too, and the
// pair keeps parking every round. On that host windows of 2¹³ and 2¹⁴
// checks parked about twice a round and ran an hc12 round at 135–186 µs;
// 2¹⁶ and 2¹⁷ parked once in 20 to 1000 rounds and ran it at 57–113 µs
// (width 1: about 130–150 µs in the same spell). Every 1024 checks the
// waiter yields its processor, so a partner queued behind it on an
// oversubscribed process runs instead of waiting out a preemption tick.
const spinChecks = 1 << 17

// newCrew builds a crew of the given width. Fixed crews spawn width-1
// helpers, seated before the first round; lending crews (fixed false) have
// width-1 empty seats for help.
func newCrew(width int, fixed bool, accN int) *crew {
	c := &crew{seats: make([]seat, width), fixed: fixed, accN: accN}
	for s := range c.seats {
		c.seats[s].wake = make(chan struct{}, 1)
	}
	if fixed {
		c.seated.Store(int32(width - 1))
		c.owned.Add(width - 1)
		for s := 1; s < width; s++ {
			c.seats[s].acc = make([]int64, accN)
			go func() {
				defer c.owned.Done()
				c.serve(s)
			}()
		}
	}
	return c
}

// chunks returns the number of chunks the next round of an n-node model
// runs in: 1 + the seated helpers, at most n.
func (c *crew) chunks(n int) int {
	return min(1+int(c.seated.Load()), n)
}

// help seats the calling goroutine at a free seat of a lending crew and
// runs its chunk of every round until the crew is closed. It returns false
// at once, without running anything, when the crew is closed or full (a
// fixed crew is always full). The seat's accumulator comes from accPool and
// goes back to it when the helper unseats.
func (c *crew) help() bool {
	c.mu.Lock()
	s := int(c.seated.Load()) + 1
	if c.closed || s >= len(c.seats) {
		c.mu.Unlock()
		return false
	}
	acc := takeAcc(c.accN)
	c.seats[s].acc = *acc
	c.seated.Store(int32(s))
	c.mu.Unlock()
	c.serve(s)
	// The crew is closed and runs no more rounds, so nothing reads the seat.
	c.seats[s].acc = nil
	accPool.Put(acc)
	return true
}

// accPool holds the accumulators of unseated lent helpers, so lending a
// goroutine to one engine after another reuses one accumulator.
var accPool sync.Pool // of *[]int64

// takeAcc returns a zeroed accumulator of n words from accPool, or a new one
// when the pool has none of that capacity.
func takeAcc(n int) *[]int64 {
	if acc, _ := accPool.Get().(*[]int64); acc != nil && cap(*acc) >= n {
		*acc = (*acc)[:n]
		clear(*acc)
		return acc
	}
	acc := make([]int64, n)
	return &acc
}

// serve is a helper's loop: wait for a ticket, run the seat's chunk, repeat
// until the crew closes. Seats are taken once and tickets go only to taken
// seats, so a seat's first ticket is its first round.
func (c *crew) serve(s int) {
	me := &c.seats[s]
	var seen uint64
	for {
		me.await(&me.ticket, seen, false)
		if seen = me.ticket.Load(); seen == quitTicket {
			return
		}
		helpers := uint64(c.width - 1)
		c.participate(s)
		if c.done.Add(1) == helpers {
			c.seats[0].signal()
		}
	}
}

// close ends the crew: seated helpers return from serve, and a fixed crew
// waits until its own goroutines have exited. Idempotent; the crew must not
// run rounds afterwards.
func (c *crew) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for s := 1; s < len(c.seats); s++ {
		c.seats[s].ticket.Store(quitTicket)
		c.seats[s].signal()
	}
	c.owned.Wait()
}

// run executes one round of work over [0, n) in the given number of chunks,
// 2 ≤ width ≤ min(n, 1 + seated). The caller runs chunk 0; run returns once
// every chunk has finished both phases, re-raising the first panic any
// participant hit.
//
//detcheck:noalloc
func (c *crew) run(n, width int, work roundWork) {
	c.n, c.width, c.work = n, width, work
	c.round++
	c.arrived.Store(0)
	c.done.Store(0)
	for s := 1; s < width; s++ {
		c.seats[s].ticket.Store(c.round)
		c.seats[s].signal()
	}
	c.participate(0)
	c.seats[0].await(&c.done, uint64(width-1), true)
	// Drop the work between rounds, so the crew (and a fixed crew's
	// goroutines) never keeps the model reachable.
	c.work = nil
	if p := c.fault.Swap(nil); p != nil {
		panic(p.v)
	}
}

// participate runs seat s's chunk of the current round: phase1, the
// barrier, phase2.
func (c *crew) participate(s int) {
	lo, hi := chunkBounds(c.n, c.width, s)
	c.guard(false, s, lo, hi)
	if c.arrived.Add(1) == int32(c.width) {
		c.passed.Store(c.round)
		for p := 0; p < c.width; p++ {
			if p != s {
				c.seats[p].signal()
			}
		}
	} else {
		c.seats[s].await(&c.passed, c.round, true)
	}
	c.guard(true, s, lo, hi)
}

// guard runs one phase of one chunk, turning a panic into the round's fault
// so every participant still reaches the barrier and the end of the round.
func (c *crew) guard(second bool, s, lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			//detcheck:allow hotalloc cold panic path; the round re-raises it on the caller
			c.fault.CompareAndSwap(nil, &crewPanic{r})
		}
	}()
	if second {
		c.work.phase2(s, lo, hi)
	} else {
		c.work.phase1(s, lo, hi)
	}
}

// await returns once (word == v) == eq: it polls the word up to spinChecks
// times, then parks on the seat's wake channel until a signal, and
// re-checks.
func (s *seat) await(word *atomic.Uint64, v uint64, eq bool) {
	for i := 0; i < spinChecks; i++ {
		if (word.Load() == v) == eq {
			return
		}
		if i%1024 == 1023 {
			runtime.Gosched()
		}
	}
	for (word.Load() == v) != eq {
		s.parked.Store(true)
		if (word.Load() == v) == eq {
			// A waker that saw the parked flag has sent, or will send, one
			// wake; take it so none is left for the next wait.
			if !s.parked.Swap(false) {
				<-s.wake
			}
			return
		}
		<-s.wake
	}
}

// signal wakes the seat's participant if it is parked. Call it after making
// the participant's condition true; at most one wake is ever outstanding.
func (s *seat) signal() {
	if s.parked.Swap(false) {
		s.wake <- struct{}{}
	}
}

// The helper budget: a process-wide count of the goroutines that step
// simulations — sweep runners while they run specs (Occupy) and lent
// helpers while seated — held against GOMAXPROCS, so lending never puts
// more simulation goroutines on a process than it has CPUs.
var (
	simBusy  atomic.Int32
	simLimit atomic.Int32
)

// Occupy counts the calling goroutine against the helper budget until the
// matching Release. It never blocks: a goroutine that steps a simulation is
// busy whatever the budget says, and the count only keeps helpers away from
// a process whose CPUs are taken.
func Occupy() {
	simLimit.Store(int32(runtime.GOMAXPROCS(0)))
	simBusy.Add(1)
}

// Release ends an Occupy.
func Release() { simBusy.Add(-1) }

// tryOccupy takes a budget slot for a helper; it fails when every slot is
// taken.
func tryOccupy() bool {
	limit := int32(runtime.GOMAXPROCS(0))
	simLimit.Store(limit)
	for {
		busy := simBusy.Load()
		if busy >= limit {
			return false
		}
		if simBusy.CompareAndSwap(busy, busy+1) {
			return true
		}
	}
}

// overbooked reports whether more simulation goroutines are counted than
// the budget allows — a lent helper then sits out the round.
func overbooked() bool { return simBusy.Load() > simLimit.Load() }

// chunkBounds returns the half-open boundary of chunk c when [0, n) is split
// into the given number of chunks.
//
// Determinism contract: the chunk boundaries are a pure function of
// (n, chunks) — the first n mod chunks chunks have size ⌈n/chunks⌉ and the
// rest ⌊n/chunks⌋, so with chunks ≤ n no chunk is ever empty and the same
// (n, chunks) always yields the same partition. Engine results do not depend
// on the partition (every inflow is an integer sum), but stable boundaries
// mean any balancer or auditor bug that did depend on it reproduces exactly,
// and TestChunkBounds pins the contract.
func chunkBounds(n, chunks, c int) (lo, hi int) {
	q, r := n/chunks, n%chunks
	lo = c*q + min(c, r)
	hi = lo + q
	if c < r {
		hi++
	}
	return lo, hi
}
