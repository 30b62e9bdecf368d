package core

import "runtime"

// Kernel is the model-agnostic execution substrate for simulation models: a
// persistent worker-goroutine pool plus the deterministic chunking contract
// that makes parallel rounds bit-identical to serial ones. The
// population-protocol machines (internal/protocol) dispatch their rounds
// through a Kernel. The diffusion Engine runs on the same crew directly, so
// that it can pick its width round by round and take lent helpers, under the
// same chunking contract; anything scheduled through a Kernel inherits the
// determinism guarantees the engine's tests pin.
//
// A round is one fused dispatch: every worker runs the first phase on its
// node range, meets the others at a barrier, then runs the second phase on
// the same range. Chunk boundaries are a pure function of (n, width) — see
// ChunkBounds — so the partition never depends on scheduling.
type Kernel struct {
	crew  *crew // nil on the serial path
	phase kernelPhases
}

// kernelPhases adapts RunRound's two phase functions to the crew's
// chunk-indexed round.
type kernelPhases struct{ first, second func(lo, hi int) }

func (p *kernelPhases) phase1(_, lo, hi int) { p.first(lo, hi) }

func (p *kernelPhases) phase2(_, lo, hi int) {
	if p.second != nil {
		p.second(lo, hi)
	}
}

// NewKernel builds a kernel with the given worker count. Values below 2
// select the serial path (phases run as direct calls on the caller's
// goroutine, which is both the determinism baseline and the fast path for
// small n); values above GOMAXPROCS are clamped to it — extra workers cannot
// run simultaneously and only add handoff overhead. The caller runs one
// chunk of every round itself, so a kernel of width w owns w-1 goroutines.
//
// Kernels with Width > 1 own goroutines; release them with Close. A kernel
// that is simply dropped leaks its pool until process exit, so owners that
// cannot guarantee a Close call should register a GC cleanup the way the
// Engine does.
func NewKernel(workers int) *Kernel {
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	k := &Kernel{}
	if workers > 1 {
		k.crew = newCrew(workers, true, 0)
	}
	return k
}

// Width returns the effective worker count after clamping; 0 and 1 both mean
// the serial path.
func (k *Kernel) Width() int {
	if k.crew == nil {
		return 1
	}
	return len(k.crew.seats)
}

// RunRound executes one fused two-phase round: first over all of [0, n),
// then — after every worker has finished its share of first — second over
// the same ranges. second may be nil. The inter-phase barrier guarantees
// second never observes a partially written first phase; with Width <= 1
// both phases run serially on the caller's goroutine. A panic in either
// phase, on any worker, is raised again on the caller once the round ends.
func (k *Kernel) RunRound(n int, first, second func(lo, hi int)) {
	if k.crew == nil || n < 2 {
		first(0, n)
		if second != nil {
			second(0, n)
		}
		return
	}
	k.phase = kernelPhases{first, second}
	k.crew.run(n, k.crew.chunks(n), &k.phase)
	// The phases usually close over the kernel's owner; dropping them keeps
	// the kernel from holding its owner alive for a GC cleanup.
	k.phase = kernelPhases{}
}

// Close shuts the worker pool down and waits for its goroutines to exit;
// idempotent. The kernel must not be used afterwards.
func (k *Kernel) Close() {
	if k.crew != nil {
		k.crew.close()
	}
}

// ChunkBounds returns the half-open boundary of chunk c when [0, n) is split
// into the given number of chunks — the kernel's deterministic partition
// contract. The first n mod chunks chunks have size ⌈n/chunks⌉ and the rest
// ⌊n/chunks⌋, so no chunk is empty and the same (n, chunks) always yields
// the same partition.
func ChunkBounds(n, chunks, c int) (lo, hi int) { return chunkBounds(n, chunks, c) }
