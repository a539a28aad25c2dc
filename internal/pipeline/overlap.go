package pipeline

import (
	"math"
	"sync"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/simnet"
)

// nodeOut is one node's merged comparison products: the cells it emitted
// (in deterministic order), its join statistics, and its modeled compare
// seconds.
type nodeOut struct {
	cells []array.StoredCell
	stats join.Stats
	time  float64
	err   error
}

// unitResult is one join unit's comparison products, filled by exactly one
// worker into a pre-allocated slot. Synthetic row coordinates are
// unit-local (0, 1, 2, …) until fold renumbers them.
type unitResult struct {
	cells []array.StoredCell
	stats join.Stats
	time  float64
	err   error
}

// compareRunner dispatches per-unit comparison work while the shuffle
// simulation is still running. The Align stage creates it, dispatches
// units with no inbound network transfers immediately, and decrements
// pending counts from the simulator's OnComplete callback — dispatching
// each remaining unit the moment its last inbound slice lands. All
// bookkeeping runs on the orchestration goroutine; only runUnit executes
// on workers, and each unit writes a distinct results slot.
type compareRunner struct {
	qc      *QueryContext
	results []unitResult
	pending []int // inbound network transfers not yet landed, per unit
	tasks   chan int
	wg      sync.WaitGroup
	inline  bool // single worker: compare on the orchestration goroutine
}

func newCompareRunner(qc *QueryContext) *compareRunner {
	n := qc.spec.NumUnits
	cr := &compareRunner{
		qc:      qc,
		results: make([]unitResult, n),
		pending: make([]int, n),
	}
	for _, t := range qc.transfers {
		cr.pending[t.Tag]++
	}
	if workers := qc.Opt.workers(); workers <= 1 {
		cr.inline = true
	} else {
		// Buffered to the unit count so dispatch never blocks the event
		// loop waiting for a free worker.
		cr.tasks = make(chan int, n)
		for w := 0; w < workers; w++ {
			cr.wg.Add(1)
			go func() {
				defer cr.wg.Done()
				for u := range cr.tasks {
					cr.runUnit(u)
				}
			}()
		}
	}
	// Units whose slices are all local need no shuffle: dispatch before
	// the simulation starts.
	for u := 0; u < n; u++ {
		if cr.pending[u] == 0 {
			cr.dispatch(u)
		}
	}
	return cr
}

// landed is the simnet.Config.OnComplete callback: invoked synchronously
// from the event loop, in deterministic dispatch order.
func (cr *compareRunner) landed(ev simnet.Event) {
	u := ev.Tag
	cr.pending[u]--
	if cr.pending[u] == 0 {
		cr.dispatch(u)
	}
}

func (cr *compareRunner) dispatch(u int) {
	if cr.inline {
		cr.runUnit(u)
	} else {
		cr.tasks <- u
	}
}

// wait stops accepting work and blocks until every dispatched unit has
// finished. The pipeline calls it exactly once (Compare stage, or the
// Align stage's error path).
func (cr *compareRunner) wait() {
	if !cr.inline {
		close(cr.tasks)
		cr.wg.Wait()
	}
}

// runUnit joins one unit on its destination node through a pull-chain
// of pooled TupleReaders. The projector copies every emitted value, so
// the unit's batches are recycled the moment the join returns.
func (cr *compareRunner) runUnit(u int) {
	qc := cr.qc
	res := &cr.results[u]
	// Per-unit cancellation point: a canceled query skips its remaining
	// units (fold surfaces the context error from the first skipped
	// slot) instead of comparing to completion.
	if err := qc.ctx.Err(); err != nil {
		res.err = err
		return
	}
	dest := qc.Report.Physical.Assignment[u]
	uproj := qc.proj.forUnit()
	emit := func(l, r *join.Tuple) {
		coords, attrs := uproj.project(l, r)
		res.cells = append(res.cells, array.StoredCell{Coords: coords, Attrs: attrs})
	}
	lrd := qc.rsl.Reader(u, dest)
	rrd := qc.rsr.Reader(u, dest)
	nl, nr := lrd.Len(), rrd.Len()
	st, err := join.RunStream(qc.plan.Algo, lrd, rrd, emit)
	lrd.Close()
	rrd.Close()
	// The unit is fully consumed: recycle its batches and return their
	// bytes to the query budget.
	qc.rsl.ReleaseUnit(u)
	qc.rsr.ReleaseUnit(u)
	if err != nil {
		res.err = err
		return
	}
	res.stats = st
	res.time = unitModelTime(qc.plan.Algo, qc.Opt.Params, nl, nr)
}

// fold merges per-unit results into per-node outputs in deterministic
// order — node ascending, units in assignment order, cells in emit order —
// renumbering synthetic row coordinates to the node's stride-K sequence
// (node, node+K, node+2K, …, disjoint across nodes) and accumulating
// modeled seconds per node in that same order, so the merged nodeOut
// values do not depend on which worker finished first.
func (cr *compareRunner) fold() []nodeOut {
	qc := cr.qc
	k := qc.Cluster.K
	nodes := make([]nodeOut, k)
	for node := 0; node < k; node++ {
		no := &nodes[node]
		row := int64(node)
		for _, u := range qc.nodeUnits[node] {
			res := &cr.results[u]
			if res.err != nil {
				no.err = res.err
				break
			}
			if qc.proj.rowDim {
				for i := range res.cells {
					res.cells[i].Coords[0] = row
					row += int64(k)
				}
			}
			no.cells = append(no.cells, res.cells...)
			no.stats.Add(res.stats)
			no.time += res.time
		}
		addPostJoinTime(no, qc.plan, qc.Opt.Params)
	}
	return nodes
}

// addPostJoinTime models the per-node post-join output handling: sorting
// or redimensioning the node's output cells when the plan calls for it
// (OutSort / OutRedim).
func addPostJoinTime(no *nodeOut, lp *logical.Plan, p physical.CostParams) {
	if lp.Out != logical.OutScan && len(no.cells) > 0 {
		n := float64(len(no.cells))
		no.time += p.Merge * n * math.Log2(math.Max(n, 2))
		if lp.Out == logical.OutRedim {
			no.time += p.Merge * n
		}
	}
}
