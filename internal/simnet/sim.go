package simnet

import "shufflejoin/internal/flight"

// This file is the indexed event-driven scheduler behind Simulate. It
// replaces the original O(T·N·Q) dispatch loop (kept in test code,
// reference_test.go, as the differential-testing oracle) with four index
// structures:
//
//   - per-sender ring queues, grouped by destination: each sender's pending
//     transfers live in one flat entries array, contiguous per (sender,
//     destination) and seq-ascending within a group; a dequeue is a head
//     index advance instead of a slice splice;
//   - a per-sender mini-heap of its destination groups keyed by the head
//     transfer's input position (headSeq). Only the sender's own dispatches
//     change its own keys, so maintenance is one O(log D) sift per
//     dispatch, and "the first queued transfer with a free destination" —
//     the greedy rule's common case — resolves by checking the heap root
//     alone instead of scanning every group;
//   - a per-sender cached candidate — which transfer the sender would
//     dispatch next and when it could start — plus an indexed min-heap of
//     senders keyed by (start, seq), so choosing the globally earliest
//     feasible dispatch is O(log N) instead of a rescan of every queue;
//   - per-destination waiter buckets: the senders whose cached candidate
//     targets destination d. A dispatch to d invalidates exactly those
//     candidates (recvFree[d] moved); they are marked stale in O(1) and
//     re-evaluated lazily, only if they surface at the heap top, because a
//     stale key remains a valid lower bound under monotone lock times.
//
// The invalidation rule is exact, not heuristic: a candidate is a pure
// function of (sender queue, senderFree[sender], recvFree[]), recvFree
// values only ever increase, and increasing recvFree[d] cannot change a
// candidate whose destination is not d — a free destination stays the
// first free one (everything earlier in queue order stays locked), and a
// polled minimum cannot move to a destination whose release time grew.
// Dispatching from sender f changes senderFree[f] and empties a queue
// slot, and f's candidate necessarily targeted the dispatched destination,
// so recomputing the waiter bucket covers f too. Candidate keys only
// increase over time, which also gives the non-decreasing-start dispatch
// order that lets Timeline skip its final sort. See DESIGN.md §8.

// Sim is a reusable simulator instance. The zero value is ready to use;
// Simulate may be called any number of times with any configurations and
// reuses the instance's internal buffers, so a steady-state caller (the
// pipeline's per-step alignment, the bench sweeps) runs allocation-free
// once the buffers have grown to the workload's high-water mark.
//
// The Result returned by (*Sim).Simulate aliases the instance's buffers
// and is valid only until the next Simulate call on the same instance;
// callers that retain it must Clone it first. The package-level Simulate
// uses a throwaway instance and returns an independent Result. A Sim is
// not safe for concurrent use.
type Sim struct {
	nodes int

	// Scheduling inputs, copied out of the Config for the duration of a run.
	sched   Scheduling
	latency float64
	perCell float64

	entries []entry       // all simulated transfers, grouped (sender, dest), seq-ascending
	groups  []group       // (sender, dest) segments of entries, grouped by sender
	senders []senderState // per-node group span + cached candidate

	senderFree []float64 // when each sender's NIC may transmit again
	recvFree   []float64 // when each receiver's write lock frees

	counts []int32 // nodes×nodes grouping scratch (counts, then fill offsets)

	gheap  []int32 // per-sender group heaps keyed by headSeq, segmented like groups
	gstack []int32 // scratch for the pruned free-destination heap search

	heapArr []int32   // indexed min-heap of senders, keyed by (cand.start, cand.seq)
	heapPos []int32   // sender → position in heapArr, -1 if absent
	waiters [][]int32 // destination → senders whose candidate targets it

	res Result // reused result buffers
}

// entry is one simulated transfer with its global input position, used to
// break start-time ties deterministically.
type entry struct {
	tr  Transfer
	seq int
}

// group is one (sender, destination) FIFO: entries[head:end], head
// advancing as transfers dispatch. headSeq caches entries[head].seq
// (maxSeq once drained) so queue-order decisions never touch the entries
// array; hpos is the group's slot in its sender's group heap.
type group struct {
	to      int
	head    int
	end     int
	headSeq int
	hpos    int32
}

// cand caches a sender's next dispatch: the group whose head it would
// send, the earliest start, whether that start required polling a held
// lock, and the minimum seq among all the sender's remaining transfers
// (to detect skipped sends without rescanning the queue).
type cand struct {
	start  float64
	seq    int
	group  int
	minSeq int
	polled bool
}

type senderState struct {
	gs, ge int // group span in Sim.groups and Sim.gheap
	cand   cand
	// dirty marks the cached candidate as possibly stale: a dispatch
	// touched the destination it targeted. The stale key is still a valid
	// lower bound (lock release times only increase), so the sender keeps
	// its heap position and is recomputed lazily, only if it surfaces at
	// the heap top — repeated invalidations of a long-blocked sender
	// collapse into a single recompute.
	dirty bool
}

const maxSeq = int(^uint(0) >> 1)

// debugCheckTimeline, set by the package's tests, verifies after every run
// that dispatch produced a Timeline with non-decreasing start times — the
// invariant that lets Simulate skip the final stable sort the original
// loop needed.
var debugCheckTimeline = false

// Simulate runs the data alignment phase on this reusable instance. See
// the package-level Simulate for the simulation semantics and the Sim
// type's documentation for the buffer-aliasing contract.
func (s *Sim) Simulate(cfg Config, transfers []Transfer) (Result, error) {
	if err := cfg.Validate(transfers); err != nil {
		return Result{}, err
	}
	s.sched, s.latency, s.perCell = cfg.Scheduling, cfg.Latency, cfg.PerCellTime
	s.reset(cfg.Nodes)
	s.build(transfers)
	s.run(cfg.OnComplete)
	if debugCheckTimeline {
		for i := 1; i < len(s.res.Timeline); i++ {
			if s.res.Timeline[i].Start < s.res.Timeline[i-1].Start {
				panic("simnet: dispatch produced a decreasing start time")
			}
		}
	}
	s.recordFlight(cfg)
	return s.res, nil
}

// recordFlight leaves the alignment phase's trail in the flight
// recorder: one align-done event per simulation and, when senders
// stalled on a receiver's write lock, one hot-receiver event naming the
// most contended destination. Telemetry only — s.res is never touched.
func (s *Sim) recordFlight(cfg Config) {
	fr := cfg.Flight
	if fr == nil {
		return
	}
	fr.Record(flight.EvAlignDone, cfg.FlightQID,
		int64(len(s.res.Timeline)), flight.F(s.res.Makespan),
		int64(s.res.LockWaits), flight.F(s.res.LockWaitTime))
	if s.res.LockWaitTime > 0 {
		hot, wait := 0, 0.0
		for j, w := range s.res.RecvLockWait {
			if w > wait {
				hot, wait = j, w
			}
		}
		var cells int64
		if hot < len(s.res.CellsRecv) {
			cells = s.res.CellsRecv[hot]
		}
		fr.Record(flight.EvHotReceiver, cfg.FlightQID,
			int64(hot), flight.F(wait), cells, 0)
	}
}

// reset sizes and zeroes every per-node buffer for a run on n nodes.
func (s *Sim) reset(n int) {
	s.nodes = n
	s.senderFree = resizeFloats(s.senderFree, n)
	s.recvFree = resizeFloats(s.recvFree, n)
	s.counts = resizeInt32s(s.counts, n*n)
	s.heapPos = resizeInt32s(s.heapPos, n)
	for i := range s.heapPos {
		s.heapPos[i] = -1
	}
	s.heapArr = s.heapArr[:0]
	if cap(s.gstack) < n+1 {
		s.gstack = make([]int32, 0, n+1)
	}
	if cap(s.senders) < n {
		s.senders = make([]senderState, n)
	} else {
		s.senders = s.senders[:n]
	}
	for len(s.waiters) < n {
		s.waiters = append(s.waiters, nil)
	}
	for i := 0; i < n; i++ {
		s.waiters[i] = s.waiters[i][:0]
	}

	r := &s.res
	r.SendBusy = resizeFloats(r.SendBusy, n)
	r.RecvBusy = resizeFloats(r.RecvBusy, n)
	r.RecvLockWait = resizeFloats(r.RecvLockWait, n)
	r.CellsSent = resizeInt64s(r.CellsSent, n)
	r.CellsRecv = resizeInt64s(r.CellsRecv, n)
	r.Makespan, r.LockWaits, r.SkippedSends, r.LockWaitTime = 0, 0, 0, 0
}

// simulated reports whether a transfer occupies the network: local slices
// never do, and empty slices only when a positive latency charges their
// connection setup.
func (s *Sim) simulated(tr Transfer) bool {
	return tr.From != tr.To && (tr.Cells > 0 || s.latency > 0)
}

// build groups the simulated transfers by (sender, destination) into the
// flat entries array via a two-pass counting sort, preserving input order
// within each group, heapifies each sender's groups by headSeq, and sizes
// the Timeline to the exact event count.
func (s *Sim) build(transfers []Transfer) {
	n := s.nodes
	total := 0
	for _, tr := range transfers {
		if !s.simulated(tr) {
			continue
		}
		s.counts[tr.From*n+tr.To]++
		total++
	}
	if cap(s.entries) < total {
		s.entries = make([]entry, total)
	} else {
		s.entries = s.entries[:total]
	}
	s.groups = s.groups[:0]
	off := 0
	for f := 0; f < n; f++ {
		st := &s.senders[f]
		st.gs = len(s.groups)
		base := f * n
		for t := 0; t < n; t++ {
			c := int(s.counts[base+t])
			if c == 0 {
				continue
			}
			s.groups = append(s.groups, group{to: t, head: off, end: off + c})
			s.counts[base+t] = int32(off) // becomes the group's fill cursor
			off += c
		}
		st.ge = len(s.groups)
	}
	for i, tr := range transfers {
		if !s.simulated(tr) {
			continue
		}
		idx := tr.From*n + tr.To
		s.entries[s.counts[idx]] = entry{tr: tr, seq: i}
		s.counts[idx]++
	}
	s.gheap = resizeInt32s(s.gheap, len(s.groups))
	for f := 0; f < n; f++ {
		st := &s.senders[f]
		d := st.ge - st.gs
		for i := 0; i < d; i++ {
			gi := st.gs + i
			g := &s.groups[gi]
			g.headSeq = s.entries[g.head].seq
			g.hpos = int32(i)
			s.gheap[gi] = int32(gi)
		}
		for i := d/2 - 1; i >= 0; i-- {
			s.gsiftDown(st, i)
		}
	}
	if cap(s.res.Timeline) < total {
		s.res.Timeline = make([]Event, 0, total)
	} else {
		s.res.Timeline = s.res.Timeline[:0]
	}
}

// run is the event loop: pop the globally earliest feasible dispatch from
// the candidate heap, commit it, and re-evaluate only the senders whose
// candidate targeted the dispatched destination.
func (s *Sim) run(onComplete func(Event)) {
	for f := 0; f < s.nodes; f++ {
		st := &s.senders[f]
		st.dirty = false // senders may be reused from a previous run
		if st.gs < st.ge {
			s.recompute(f)
		}
	}
	res := &s.res
	for len(s.heapArr) > 0 {
		f := int(s.heapArr[0])
		st := &s.senders[f]
		if st.dirty {
			// The top sender's candidate may be stale. Refresh it: every
			// other key in the heap is a lower bound, so once the top is
			// clean its candidate is the exact global minimum.
			st.dirty = false
			s.recompute(f)
			continue
		}
		c := st.cand
		g := &s.groups[c.group]
		e := s.entries[g.head]
		tr := e.tr
		if c.polled {
			res.LockWaits++
			if wait := c.start - s.senderFree[f]; wait > 0 {
				res.RecvLockWait[tr.To] += wait
				res.LockWaitTime += wait
			}
		}
		if e.seq > c.minSeq {
			res.SkippedSends++
		}
		dur := s.latency + float64(tr.Cells)*s.perCell
		end := c.start + dur
		s.senderFree[f] = end
		s.recvFree[tr.To] = end
		res.SendBusy[tr.From] += dur
		res.RecvBusy[tr.To] += dur
		res.CellsSent[tr.From] += tr.Cells
		res.CellsRecv[tr.To] += tr.Cells
		if end > res.Makespan {
			res.Makespan = end
		}
		ev := Event{Transfer: tr, Start: c.start, End: end}
		res.Timeline = append(res.Timeline, ev)
		if onComplete != nil {
			onComplete(ev)
		}
		g.head++
		if g.head < g.end {
			g.headSeq = s.entries[g.head].seq
		} else {
			g.headSeq = maxSeq
		}
		s.gsiftDown(st, int(g.hpos))
		// Only candidates targeting tr.To saw an input change (f's own is
		// among them: it just dispatched to tr.To). Mark them stale; they
		// re-register in a bucket when they are actually recomputed.
		for _, w := range s.waiters[tr.To] {
			s.senders[w].dirty = true
		}
		s.waiters[tr.To] = s.waiters[tr.To][:0]
	}
}

// recompute re-derives a sender's cached candidate from its queues and the
// current lock state, fixes its heap position (or removes it when its
// queues are empty), and registers it in the candidate destination's
// waiter bucket. The group-heap root resolves FIFO candidates and the
// greedy fast path (queue head's destination free) in O(1); only a locked
// queue head falls back to one linear pass over the sender's groups.
func (s *Sim) recompute(f int) {
	st := &s.senders[f]
	ready := s.senderFree[f]
	root := int(s.gheap[st.gs])
	minSeq := s.groups[root].headSeq
	if minSeq == maxSeq {
		s.heapRemove(f)
		return
	}
	var c cand
	if s.sched == FIFONoSkip {
		// FIFO takes the overall queue head — the group-heap root.
		c = cand{start: ready, seq: minSeq, group: root, minSeq: minSeq}
		if at := s.recvFree[s.groups[root].to]; at > ready {
			c.start, c.polled = at, true
		}
	} else if s.recvFree[s.groups[root].to] <= ready {
		// Fast path: the overall queue head's destination is free, and no
		// earlier-queued transfer exists, so it is the greedy pick.
		c = cand{start: ready, seq: minSeq, group: root, minSeq: minSeq}
	} else {
		// Pruned DFS over the sender's group heap for the earliest-queued
		// free destination: a subtree is skipped when its root cannot beat
		// the best free group found so far (heap order: children hold
		// larger headSeq), so a free group near the root ends the search
		// after a handful of visits. The walk simultaneously accumulates
		// the polled fallback — the earliest-releasing lock, ties by queue
		// position. If no free group exists nothing was pruned except
		// drained subtrees (a drained node's children are drained too, by
		// heap order), so every live group was visited and the fallback's
		// lexmin is complete.
		best, bestG := maxSeq, -1
		pG, pSeq := -1, maxSeq
		var pAt float64
		d := st.ge - st.gs
		stack := append(s.gstack[:0], 0)
		for len(stack) > 0 {
			i := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			gi := int(s.gheap[st.gs+i])
			g := &s.groups[gi]
			hs := g.headSeq
			if hs >= best { // covers drained groups: headSeq == maxSeq
				continue
			}
			if at := s.recvFree[g.to]; at <= ready {
				best, bestG = hs, gi
				continue // children hold larger headSeq: pruned
			} else if pG == -1 || at < pAt || (at == pAt && hs < pSeq) {
				pG, pAt, pSeq = gi, at, hs
			}
			if l := 2*i + 1; l < d {
				stack = append(stack, int32(l))
				if r := l + 1; r < d {
					stack = append(stack, int32(r))
				}
			}
		}
		if bestG >= 0 {
			c = cand{start: ready, seq: best, group: bestG, minSeq: minSeq}
		} else {
			c = cand{start: pAt, seq: pSeq, group: pG, minSeq: minSeq, polled: true}
		}
	}
	st.cand = c
	s.heapFix(f)
	to := s.groups[c.group].to
	s.waiters[to] = append(s.waiters[to], int32(f))
}

// gsiftDown restores a sender's group heap after the group at relative
// position i grew its headSeq (head advance or drain); keys never shrink,
// so sift-down is the only direction needed after build.
func (s *Sim) gsiftDown(st *senderState, i int) {
	base := st.gs
	d := st.ge - base
	for {
		l := 2*i + 1
		if l >= d {
			return
		}
		least := l
		if r := l + 1; r < d && s.groups[s.gheap[base+r]].headSeq < s.groups[s.gheap[base+l]].headSeq {
			least = r
		}
		gi, gl := s.gheap[base+i], s.gheap[base+least]
		if s.groups[gl].headSeq >= s.groups[gi].headSeq {
			return
		}
		s.gheap[base+i], s.gheap[base+least] = gl, gi
		s.groups[gi].hpos = int32(least)
		s.groups[gl].hpos = int32(i)
		i = least
	}
}

// Indexed binary min-heap over senders, keyed by (cand.start, cand.seq).
// seq values are globally unique, so the order — and therefore every
// dispatch — is a deterministic total order.

func (s *Sim) heapLess(a, b int32) bool {
	ca, cb := &s.senders[a].cand, &s.senders[b].cand
	if ca.start != cb.start {
		return ca.start < cb.start
	}
	return ca.seq < cb.seq
}

func (s *Sim) heapSwap(i, j int) {
	h := s.heapArr
	h[i], h[j] = h[j], h[i]
	s.heapPos[h[i]] = int32(i)
	s.heapPos[h[j]] = int32(j)
}

func (s *Sim) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(s.heapArr[i], s.heapArr[parent]) {
			return
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

func (s *Sim) siftDown(i int) {
	n := len(s.heapArr)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && s.heapLess(s.heapArr[r], s.heapArr[l]) {
			least = r
		}
		if !s.heapLess(s.heapArr[least], s.heapArr[i]) {
			return
		}
		s.heapSwap(i, least)
		i = least
	}
}

// heapFix inserts sender f or restores the heap order around its updated
// key.
func (s *Sim) heapFix(f int) {
	if i := s.heapPos[f]; i >= 0 {
		s.siftUp(int(i))
		s.siftDown(int(s.heapPos[f]))
		return
	}
	s.heapArr = append(s.heapArr, int32(f))
	s.heapPos[f] = int32(len(s.heapArr) - 1)
	s.siftUp(len(s.heapArr) - 1)
}

// heapRemove deletes sender f from the heap (no-op if absent).
func (s *Sim) heapRemove(f int) {
	i := int(s.heapPos[f])
	if i < 0 {
		return
	}
	last := len(s.heapArr) - 1
	s.heapSwap(i, last)
	s.heapArr = s.heapArr[:last]
	s.heapPos[f] = -1
	if i < last {
		s.siftUp(i)
		s.siftDown(i)
	}
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}
