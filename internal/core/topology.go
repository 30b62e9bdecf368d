package core

import (
	"fmt"
	"math/bits"
)

// This file is the engine's topology fault overlay: deterministic link and
// node failures applied between rounds through ApplyTopologyDelta, the
// structural counterpart of the load-delta hook ApplyDelta.
//
// Semantics. A failed link delivers nothing: tokens a balancer assigns to a
// dead arc bounce back to the sender at the end of the distribute phase, so a
// dead arc behaves exactly like an extra self-loop. A failed node loses its
// links (every arc into or out of it is dead) and gives up its load under one
// of two policies — stranded (the load leaves the system, lowering the
// conservation total through DeltaObserver) or redistributed (split across
// the node's live neighbors, floor share plus one extra token per remainder
// unit to the lowest arc indices). Both policies, like every delta, are pure
// functions of the engine state, so faulted runs keep the engine's
// bit-identical determinism across worker counts.
//
// Representation. The CSR layout is never mutated. Faults live in a delta
// overlay on top of it: a per-arc alive mask (plus a per-node dead-out-arc
// bitmask when d ≤ 64) and a per-node live-degree array, consulted by the
// distribute phase's bounce pass. Small pure-link deltas update the overlay
// incrementally around the touched arcs; node events or deltas that erode a
// large fraction of the graph trigger a full epoch rebuild — an O(n·d) sweep
// recomputing the overlay from the ground-truth linkDead/nodeAlive state.
// Both paths produce identical overlays (pinned by tests). Faulted rounds
// allocate nothing: every overlay array is sized at the first delta.

// NodeFault describes one node failure together with its load policy.
type NodeFault struct {
	// Node is the failing node.
	Node int
	// Redistribute moves the node's load to its live neighbors (floor share
	// per live arc, remainder to the lowest arc indices) instead of stranding
	// it. A redistributing node with no live neighbors strands regardless.
	Redistribute bool
}

// TopologyDelta is one between-round batch of topology events. Links are
// undirected node pairs: failing {u, v} kills every parallel arc in both
// directions; pairs that are not edges of the graph are no-ops. Events apply
// in field order — restored links, failed links, restored nodes, failed
// nodes — so within one delta a failure wins over a restore of the same
// object, and node failures see the delta's final link state.
type TopologyDelta struct {
	RestoreLinks [][2]int
	FailLinks    [][2]int
	RestoreNodes []int
	FailNodes    []NodeFault
}

// Empty reports whether the delta carries no events at all.
func (d TopologyDelta) Empty() bool {
	return len(d.RestoreLinks) == 0 && len(d.FailLinks) == 0 &&
		len(d.RestoreNodes) == 0 && len(d.FailNodes) == 0
}

// Events returns the total event count across all four lists — the size
// admission control caps on.
func (d TopologyDelta) Events() int {
	return len(d.RestoreLinks) + len(d.FailLinks) + len(d.RestoreNodes) + len(d.FailNodes)
}

// TopologyChange summarizes what one ApplyTopologyDelta call actually
// changed. Events that were already in force (failing a dead link, restoring
// an alive node) are not counted, so Changed reports whether the delta had
// any effect at all.
type TopologyChange struct {
	// FailedLinks and RestoredLinks count undirected links whose state
	// actually flipped (a link with parallel arcs counts once).
	FailedLinks   int
	RestoredLinks int
	// FailedNodes and RestoredNodes count nodes whose alive state flipped.
	FailedNodes   int
	RestoredNodes int
	// Stranded is the load removed with stranded nodes by this delta;
	// Redistributed the load moved from failing nodes to live neighbors.
	Stranded      int64
	Redistributed int64
	// Epoch is the engine's topology epoch after the delta (0 = pristine;
	// it increments once per effective delta).
	Epoch int
}

// Changed reports whether the delta had any structural or load effect.
func (c TopologyChange) Changed() bool {
	return c.FailedLinks > 0 || c.RestoredLinks > 0 || c.FailedNodes > 0 || c.RestoredNodes > 0 ||
		c.Stranded > 0 || c.Redistributed > 0
}

// topoState is the engine's fault overlay, allocated lazily at the first
// topology delta and reused (zero allocations) by every faulted round after.
type topoState struct {
	// linkDead[p] marks the arc at position p dead by an explicit link
	// failure; nodeAlive[u] is the node's alive state. These two are the
	// ground truth the overlay is rebuilt from.
	linkDead  []bool
	nodeAlive []bool

	// arcAlive is the effective per-arc mask consulted by the hot paths:
	// arcAlive[p] = !linkDead[p] && nodeAlive[tail(p)] && nodeAlive[head(p)].
	arcAlive []bool
	// deadMask[u] is the d-bit mask of u's dead out-arcs, maintained only
	// when d ≤ 64 (the same bound as the flat balancers' extra-token mask);
	// the bounce pass falls back to scanning arcAlive otherwise.
	deadMask []uint64
	// liveDeg[u] counts u's live out-arcs; by symmetry of link and node
	// failures it equals the live in-degree.
	liveDeg []int32

	// deadArcs counts entries of arcAlive that are false; faulted is the hot
	// paths' cheap gate (deadArcs > 0).
	deadArcs int
	faulted  bool

	// epoch counts effective deltas; comps/compCount memoize the live
	// component labels for compEpoch (-1 = not yet computed).
	epoch     int
	comps     []int32
	compCount int
	compEpoch int

	// stranded is the cumulative load removed with stranded nodes.
	stranded int64

	// delta is the scratch load-delta vector node failures accumulate into
	// for DeltaObserver notification.
	delta []int64
	// queue is BFS scratch for component labeling.
	queue []int32
	// compLo/compHi are per-component extrema scratch for
	// EffectiveDiscrepancy (component count is at most n).
	compLo, compHi []int64
}

// newTopoState sizes every overlay array for an n-node degree-d engine.
func newTopoState(n, d int) *topoState {
	t := &topoState{
		linkDead:  make([]bool, n*d),
		nodeAlive: make([]bool, n),
		arcAlive:  make([]bool, n*d),
		liveDeg:   make([]int32, n),
		comps:     make([]int32, n),
		compEpoch: -1,
		delta:     make([]int64, n),
		queue:     make([]int32, 0, n),
		compLo:    make([]int64, n),
		compHi:    make([]int64, n),
	}
	for i := range t.nodeAlive {
		t.nodeAlive[i] = true
	}
	for i := range t.arcAlive {
		t.arcAlive[i] = true
	}
	for i := range t.liveDeg {
		t.liveDeg[i] = int32(d)
	}
	if d <= 64 {
		t.deadMask = make([]uint64, n)
	}
	return t
}

// erosionRebuild is the overlay's incremental-update budget: a pure-link
// delta touching more than 1/erosionRebuild of all arcs (or any node event)
// rebuilds the whole overlay instead of patching around the touched arcs.
const erosionRebuild = 8

// ApplyTopologyDelta applies one batch of link/node fault events between
// rounds — never during a Step — and returns a summary of what actually
// changed. Events already in force are no-ops; a delta with no effect leaves
// the topology epoch unchanged. Load moved by node failures (stranding or
// redistribution) is reported to DeltaObserver auditors exactly like an
// ApplyDelta injection, so the conservation total follows the stranded load
// out of the system.
//
//detcheck:noalloc
func (e *Engine) ApplyTopologyDelta(delta TopologyDelta) (TopologyChange, error) {
	n := e.bal.N()
	d := e.d
	if err := delta.validate(n); err != nil {
		return TopologyChange{}, err
	}
	if e.topo == nil {
		if delta.Empty() {
			return TopologyChange{}, nil
		}
		e.topo = newTopoState(n, d)
	}
	// A faulted round bounces dead arcs' sends, so it needs them per arc.
	e.ensureSends()
	t := e.topo

	var ch TopologyChange
	// touched collects arc positions flipped by link events for the
	// incremental overlay update; nil-ed out once a full rebuild is decided.
	touched := t.queue[:0]
	overBudget := len(delta.RestoreNodes) > 0 || len(delta.FailNodes) > 0
	//detcheck:allow hotalloc closure escapes only on the first fault of a run; fault-free rounds never reach it (BENCH_topology pins the 0-alloc faulted round)
	note := func(p int32) {
		if overBudget {
			return
		}
		//detcheck:allow hotalloc appends into reusable t.queue scratch between rounds, never inside Step; growth is bounded by the erosionRebuild budget
		touched = append(touched, p)
		if len(touched)*erosionRebuild > n*d {
			overBudget = true
		}
	}

	// 1. Restored links, then 2. failed links: flip linkDead on every
	// parallel arc in both directions, counting each undirected link once.
	for _, uv := range delta.RestoreLinks {
		changed := false
		for _, p := range e.linkArcs(uv[0], uv[1]) {
			if t.linkDead[p] {
				t.linkDead[p] = false
				changed = true
				note(p)
			}
		}
		for _, p := range e.linkArcs(uv[1], uv[0]) {
			if t.linkDead[p] {
				t.linkDead[p] = false
				changed = true
				note(p)
			}
		}
		if changed {
			ch.RestoredLinks++
		}
	}
	for _, uv := range delta.FailLinks {
		changed := false
		for _, p := range e.linkArcs(uv[0], uv[1]) {
			if !t.linkDead[p] {
				t.linkDead[p] = true
				changed = true
				note(p)
			}
		}
		for _, p := range e.linkArcs(uv[1], uv[0]) {
			if !t.linkDead[p] {
				t.linkDead[p] = true
				changed = true
				note(p)
			}
		}
		if changed {
			ch.FailedLinks++
		}
	}

	// 3. Restored nodes rejoin with whatever load they hold (zero unless a
	// workload schedule injected into them while dead).
	for _, u := range delta.RestoreNodes {
		if !t.nodeAlive[u] {
			t.nodeAlive[u] = true
			ch.RestoredNodes++
		}
	}

	// 4. Failed nodes, strictly in order: a node failed earlier in the same
	// delta is already dead when a later one looks for live neighbors.
	loadMoved := false
	for i := range t.delta {
		t.delta[i] = 0
	}
	for _, nf := range delta.FailNodes {
		u := nf.Node
		if !t.nodeAlive[u] {
			continue
		}
		t.nodeAlive[u] = false
		ch.FailedNodes++
		load := e.x[u]
		if load == 0 {
			continue
		}
		live := 0
		if nf.Redistribute {
			for p := u * d; p < (u+1)*d; p++ {
				if !t.linkDead[p] && t.nodeAlive[e.heads[p]] {
					live++
				}
			}
		}
		if live == 0 {
			// Stranding (explicit, or redistribution with nowhere to go):
			// the load leaves the system.
			t.delta[u] -= load
			t.stranded += load
			ch.Stranded += load
			e.x[u] = 0
			loadMoved = true
			continue
		}
		share := load / int64(live)
		rem := int(load % int64(live))
		for p := u * d; p < (u+1)*d; p++ {
			if t.linkDead[p] || !t.nodeAlive[e.heads[p]] {
				continue
			}
			portion := share
			if rem > 0 {
				portion++
				rem--
			}
			if portion != 0 {
				v := int(e.heads[p])
				e.x[v] += portion
				t.delta[v] += portion
			}
		}
		t.delta[u] -= load
		ch.Redistributed += load
		e.x[u] = 0
		loadMoved = true
	}

	structural := ch.FailedLinks > 0 || ch.RestoredLinks > 0 || ch.FailedNodes > 0 || ch.RestoredNodes > 0
	if structural {
		if overBudget {
			t.rebuild(e.heads, d)
		} else {
			t.patch(touched, e.heads, d)
		}
	}
	if structural || loadMoved {
		t.epoch++
		t.compEpoch = -1
	}
	ch.Epoch = t.epoch

	if loadMoved {
		for _, a := range e.auditors {
			if obs, ok := a.(DeltaObserver); ok {
				obs.ObserveDelta(e, t.delta)
			}
		}
	}
	return ch, nil
}

// validate rejects out-of-range nodes and self-links before any mutation, so
// a bad delta never leaves the overlay half-applied.
func (d TopologyDelta) validate(n int) error {
	checkNode := func(kind string, u int) error {
		if u < 0 || u >= n {
			return fmt.Errorf("core: topology %s: node %d out of range [0,%d)", kind, u, n)
		}
		return nil
	}
	for _, uv := range d.RestoreLinks {
		if err := checkNode("restore-link", uv[0]); err != nil {
			return err
		}
		if err := checkNode("restore-link", uv[1]); err != nil {
			return err
		}
		if uv[0] == uv[1] {
			return fmt.Errorf("core: topology restore-link: self-link at node %d", uv[0])
		}
	}
	for _, uv := range d.FailLinks {
		if err := checkNode("fail-link", uv[0]); err != nil {
			return err
		}
		if err := checkNode("fail-link", uv[1]); err != nil {
			return err
		}
		if uv[0] == uv[1] {
			return fmt.Errorf("core: topology fail-link: self-link at node %d", uv[0])
		}
	}
	for _, u := range d.RestoreNodes {
		if err := checkNode("restore-node", u); err != nil {
			return err
		}
	}
	for _, nf := range d.FailNodes {
		if err := checkNode("fail-node", nf.Node); err != nil {
			return err
		}
	}
	return nil
}

// linkArcs returns the arc positions of u's out-arcs with head v (parallel
// arcs included). The returned slice aliases a small reusable scratch only
// valid until the next call; callers iterate it immediately.
func (e *Engine) linkArcs(u, v int) []int32 {
	e.linkScratch = e.linkScratch[:0]
	base := u * e.d
	for i, h := range e.heads[base : base+e.d] {
		if int(h) == v {
			e.linkScratch = append(e.linkScratch, int32(base+i))
		}
	}
	return e.linkScratch
}

// patch applies the incremental overlay update: recompute aliveness for the
// touched arcs only. Valid only for pure-link deltas (node aliveness is
// unchanged, so no arc outside the touched set can have flipped).
func (t *topoState) patch(touched []int32, heads []int32, d int) {
	for _, p32 := range touched {
		p := int(p32)
		u := p / d
		alive := !t.linkDead[p] && t.nodeAlive[u] && t.nodeAlive[heads[p]]
		if alive == t.arcAlive[p] {
			continue
		}
		t.arcAlive[p] = alive
		if alive {
			t.liveDeg[u]++
			t.deadArcs--
			if t.deadMask != nil {
				t.deadMask[u] &^= 1 << uint(p-u*d)
			}
		} else {
			t.liveDeg[u]--
			t.deadArcs++
			if t.deadMask != nil {
				t.deadMask[u] |= 1 << uint(p-u*d)
			}
		}
	}
	t.faulted = t.deadArcs > 0
}

// rebuild recomputes the whole overlay from the ground-truth
// linkDead/nodeAlive state — the epoch-rebuild fallback for node events and
// heavily eroding deltas. One linear O(n·d) sweep, no allocation.
func (t *topoState) rebuild(heads []int32, d int) {
	n := len(t.nodeAlive)
	t.deadArcs = 0
	for u := 0; u < n; u++ {
		base := u * d
		var mask uint64
		live := int32(0)
		uAlive := t.nodeAlive[u]
		for i := 0; i < d; i++ {
			p := base + i
			alive := uAlive && !t.linkDead[p] && t.nodeAlive[heads[p]]
			t.arcAlive[p] = alive
			if alive {
				live++
			} else {
				if i < 64 {
					mask |= 1 << uint(i)
				}
				t.deadArcs++
			}
		}
		t.liveDeg[u] = live
		if t.deadMask != nil {
			t.deadMask[u] = mask
		}
	}
	t.faulted = t.deadArcs > 0
}

// maskDeadSends is the distribute phase's bounce pass on [lo, hi): tokens the
// balancer assigned to dead out-arcs return to their sender's kept pile and
// the per-arc sends are zeroed, so the push and the flow counters only see
// tokens that actually moved. Per-node state is owned by the range's chunk,
// so the pass is parallel-safe and bit-identical to the serial order.
func (e *Engine) maskDeadSends(kept []int64, lo, hi int) {
	t := e.topo
	d := e.d
	sends := e.sendsFlat
	if t.deadMask != nil {
		for u := lo; u < hi; u++ {
			m := t.deadMask[u]
			if m == 0 {
				continue
			}
			base := u * d
			var bounced int64
			for ; m != 0; m &= m - 1 {
				p := base + bits.TrailingZeros64(m)
				bounced += sends[p]
				sends[p] = 0
			}
			kept[u] += bounced
		}
		return
	}
	alive := t.arcAlive
	for u := lo; u < hi; u++ {
		if int(t.liveDeg[u]) == d {
			continue
		}
		var bounced int64
		for p := u * d; p < (u+1)*d; p++ {
			if !alive[p] {
				bounced += sends[p]
				sends[p] = 0
			}
		}
		kept[u] += bounced
	}
}

// TopologyEpoch returns the number of effective topology deltas applied
// since construction; 0 means the CSR graph is pristine.
func (e *Engine) TopologyEpoch() int {
	if e.topo == nil {
		return 0
	}
	return e.topo.epoch
}

// ArcAlive returns the effective per-arc alive mask (arc position indexed,
// like Heads), or nil when no topology delta was ever applied — nil means
// every arc is alive. Shared; do not modify.
func (e *Engine) ArcAlive() []bool {
	if e.topo == nil {
		return nil
	}
	return e.topo.arcAlive
}

// NodeAlive reports whether node u is alive (true on a pristine engine).
func (e *Engine) NodeAlive(u int) bool {
	if e.topo == nil {
		return true
	}
	return e.topo.nodeAlive[u]
}

// LiveNodes counts alive nodes.
func (e *Engine) LiveNodes() int {
	if e.topo == nil {
		return e.bal.N()
	}
	live := 0
	for _, a := range e.topo.nodeAlive {
		if a {
			live++
		}
	}
	return live
}

// StrandedLoad returns the cumulative load removed with stranded node
// failures since construction.
func (e *Engine) StrandedLoad() int64 {
	if e.topo == nil {
		return 0
	}
	return e.topo.stranded
}

// Components labels the live components of the faulted graph: labels[u] is
// the component index of node u (0-based, in order of lowest member), or −1
// for failed nodes; count is the number of live components. Labels are
// memoized per topology epoch, so calling this every round of a faulted run
// costs one BFS per epoch, not per round. Shared; do not modify.
func (e *Engine) Components() (labels []int32, count int) {
	if e.topo == nil {
		// Pristine engine: label the static graph's components the same way,
		// so consumers need no special case (connected graphs get one label).
		e.topo = newTopoState(e.bal.N(), e.d)
	}
	t := e.topo
	if t.compEpoch == t.epoch {
		return t.comps, t.compCount
	}
	n := e.bal.N()
	d := e.d
	for i := range t.comps {
		t.comps[i] = -1
	}
	count = 0
	queue := t.queue[:0]
	for s := 0; s < n; s++ {
		if !t.nodeAlive[s] || t.comps[s] >= 0 {
			continue
		}
		label := int32(count)
		count++
		t.comps[s] = label
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := int(queue[len(queue)-1])
			queue = queue[:len(queue)-1]
			base := u * d
			for i := 0; i < d; i++ {
				p := base + i
				if !t.arcAlive[p] {
					continue
				}
				v := e.heads[p]
				if t.comps[v] < 0 {
					t.comps[v] = label
					queue = append(queue, v)
				}
			}
		}
	}
	t.queue = queue[:0]
	t.compCount = count
	t.compEpoch = t.epoch
	return t.comps, count
}

// EffectiveDiscrepancy is the per-component discrepancy of the faulted
// graph: the maximum over live components of (max − min load within the
// component), with failed nodes excluded. On a pristine engine it equals
// Discrepancy. It is the quantity fault-recovery tracking measures — after a
// partition, each side can still balance internally even though the global
// discrepancy is pinned by the imbalance across the cut.
func (e *Engine) EffectiveDiscrepancy() int64 {
	if e.topo == nil || (!e.topo.faulted && e.topo.epoch == 0) {
		return Discrepancy(e.x)
	}
	labels, count := e.Components()
	if count == 0 {
		return 0
	}
	lo, hi := e.topo.compLo[:count], e.topo.compHi[:count]
	for c := range lo {
		// Components labels in order of lowest member, so the first node
		// carrying each label latches both extrema before any comparison.
		lo[c], hi[c] = 0, 0
	}
	latched := int32(0)
	for u, label := range labels {
		if label < 0 {
			continue
		}
		v := e.x[u]
		if label >= latched {
			lo[label], hi[label] = v, v
			latched = label + 1
			continue
		}
		if v < lo[label] {
			lo[label] = v
		}
		if v > hi[label] {
			hi[label] = v
		}
	}
	var worst int64
	for c := range lo {
		if disc := hi[c] - lo[c]; disc > worst {
			worst = disc
		}
	}
	return worst
}

// UnreachableLoad returns the load excess that no amount of balancing can
// move off its component: Σ over live components c of
// max(0, total_c − n_c·⌈L/N⌉), where L and N are the total load and node
// count over live nodes. It is 0 on a connected live graph and grows with
// the imbalance a partition locked in.
func (e *Engine) UnreachableLoad() int64 {
	labels, count := e.Components()
	if count <= 1 {
		return 0
	}
	totals := make([]int64, count)
	sizes := make([]int64, count)
	var live, total int64
	for u, label := range labels {
		if label < 0 {
			continue
		}
		totals[label] += e.x[u]
		sizes[label]++
		live++
		total += e.x[u]
	}
	if live == 0 {
		return 0
	}
	fair := CeilShare(total, int(live))
	var excess int64
	for c := 0; c < count; c++ {
		if over := totals[c] - sizes[c]*fair; over > 0 {
			excess += over
		}
	}
	return excess
}
