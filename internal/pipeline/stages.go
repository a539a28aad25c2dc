package pipeline

import (
	"fmt"
	"sync"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/flight"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/shuffle"
	"shufflejoin/internal/simnet"
	"shufflejoin/internal/stats"
)

// LogicalPlan is the Section 4 planning stage: source resolution,
// join-schema inference, selectivity estimation, and plan enumeration.
// It normalizes the options in place and selects the plan to execute
// (cheapest, or the ForceAlgo match).
type LogicalPlan struct{}

func (LogicalPlan) Name() string { return "logical-plan" }

func (LogicalPlan) Run(qc *QueryContext) error {
	c, opt := qc.Cluster, qc.Opt
	opt.normalize()
	if opt.Cache != nil && !qc.explainOnly {
		qc.sig = planSignature(qc)
		// Singleflight lookup: concurrent misses on the same signature
		// wait for the first query's plan instead of all planning. On a
		// miss the returned Planning token is retired after Store (or by
		// Execute's cleanup if the query dies first) so waiters wake.
		e, outcome, planning, err := opt.Cache.BeginLookup(qc.ctx, qc.sig)
		if err != nil {
			return err
		}
		qc.planning = planning
		if e != nil {
			// Hit (direct or suppressed): replay the stored logical plan;
			// the physical stage revalidates the assignment against fresh
			// slice statistics.
			opt.Trace.Metrics().Counter("plancache.hit").Add(1)
			if outcome == "suppressed" {
				opt.Trace.Metrics().Counter("plancache.suppressed").Add(1)
			}
			qc.fr.Record(flight.EvPlanCache, qc.qid, qc.fr.Label(outcome), 0, 0, 0)
			lp := e.Logical
			qc.plan, qc.cached = &lp, e
			qc.plans = []logical.Plan{lp}
			qc.Report.Logical = lp
			qc.Report.Selectivity = e.Selectivity
			qc.Report.PlanSource = PlanSourceCached
			qc.Report.CacheOutcome = outcome
			return nil
		}
		opt.Trace.Metrics().Counter("plancache.miss").Add(1)
		qc.fr.Record(flight.EvPlanCache, qc.qid, qc.fr.Label("miss"), 0, 0, 0)
		qc.Report.CacheOutcome = "miss"
	}
	src, err := logical.ResolveSources(qc.Left.Array.Schema, qc.Right.Array.Schema, qc.Out, qc.Pred)
	if err != nil {
		return err
	}
	target := opt.TargetCellsPerChunk
	if target <= 0 {
		// Join units should be of moderate size (Section 3.3): fine
		// grained enough to give every node many units to balance, capped
		// so huge inputs don't flood the physical planner with options.
		total := qc.Left.Array.CellCount() + qc.Right.Array.CellCount()
		target = total / int64(32*c.K)
		if target < 256 {
			target = 256
		}
		if target > logical.DefaultTargetCellsPerChunk {
			target = logical.DefaultTargetCellsPerChunk
		}
	}
	js, err := logical.InferJoinSchema(src, logical.InferOptions{
		AttrHistogram:       catalogHistogram(c),
		TargetCellsPerChunk: target,
		ExtraCarryLeft:      opt.ExtraCarryLeft,
		ExtraCarryRight:     opt.ExtraCarryRight,
	})
	if err != nil {
		return err
	}
	lopt := opt.Logical
	lopt.Nodes = c.K
	sa := logical.ArrayStats{Cells: qc.Left.Array.CellCount(), Chunks: int64(qc.Left.Array.ChunkCount())}
	sb := logical.ArrayStats{Cells: qc.Right.Array.CellCount(), Chunks: int64(qc.Right.Array.ChunkCount())}
	if lopt.Selectivity <= 0 {
		// No caller estimate: derive one from catalog statistics
		// (histogram-based power-law estimation; see internal/cardinality).
		lopt.Selectivity = EstimateSelectivity(c, src, sa.Cells, sb.Cells)
	}
	sp := opt.Trace.Root().Child("plan.logical")
	if opt.PlanPolicy != nil && opt.ForceAlgo == nil && !qc.explainOnly {
		// Greedy fast path: constant-size candidate set instead of the
		// full Algorithm-1 sweep (see logical.GreedyChoose). ForceAlgo
		// needs the full enumeration to honor the algorithm pin.
		lp, err := logical.GreedyChoose(js, sa, sb, lopt)
		if err != nil {
			return err
		}
		sp.SetNum("selectivity", lopt.Selectivity)
		sp.SetStr("best", lp.Describe())
		sp.SetStr("mode", "greedy")
		sp.End()
		qc.plans = []logical.Plan{lp}
		qc.Report.Selectivity = lopt.Selectivity
		qc.plan = &qc.plans[0]
		qc.Report.Logical = lp
		qc.Report.PlanSource = PlanSourceGreedy
		return nil
	}
	plans, err := logical.Enumerate(js, sa, sb, lopt)
	if err != nil {
		return err
	}
	sp.SetInt("candidates", int64(len(plans)))
	sp.SetNum("selectivity", lopt.Selectivity)
	sp.SetStr("best", plans[0].Describe())
	sp.End()
	opt.Trace.Metrics().Counter("plan.candidates").Add(int64(len(plans)))

	qc.plans = plans
	qc.Report.Selectivity = lopt.Selectivity
	if qc.explainOnly {
		return nil
	}
	lp := plans[0]
	if opt.ForceAlgo != nil {
		found := false
		for _, p := range plans {
			if p.Algo == *opt.ForceAlgo {
				lp, found = p, true
				break
			}
		}
		if !found {
			return fmt.Errorf("pipeline: no valid plan with algorithm %v", *opt.ForceAlgo)
		}
	}
	qc.plan = &lp
	qc.Report.Logical = lp
	qc.Report.PlanSource = PlanSourceFull
	return nil
}

// SliceMap is the Section 3.3 stage: each node maps its resident cells of
// both sides into join-unit slices (in parallel across nodes). The slices
// are bounded columnar batch runs (shuffle.MapSideStream) with a shared
// per-query intern dictionary and memory budget.
type SliceMap struct{}

func (SliceMap) Name() string { return "slice-map" }

func (SliceMap) Run(qc *QueryContext) error {
	c, opt := qc.Cluster, qc.Opt
	workers := opt.workers()
	ms := opt.Trace.Root().Child("map.slices")
	spec, lm, rm := logical.UnitSpecFor(qc.plan)
	qc.budget = batch.NewBudget(opt.MemoryBudget, opt.StrictMemory)
	// Attach before the budget is shared with mapper workers so
	// charge/credit events carry the query id from the first batch.
	qc.budget.SetFlight(qc.fr, qc.qid)
	cfg := shuffle.StreamConfig{
		BatchRows: opt.BatchSize,
		Intern:    batch.NewIntern(),
		Budget:    qc.budget,
	}
	rsl, err := shuffle.MapSideStream(qc.Left, c.K, spec, lm, workers, cfg)
	if err != nil {
		return err
	}
	rsr, err := shuffle.MapSideStream(qc.Right, c.K, spec, rm, workers, cfg)
	if err != nil {
		return err
	}
	qc.rsl, qc.rsr = rsl, rsr
	// The budget only rises during mapping and only falls as compare
	// retires units, so the peak is already final here — record it and
	// surface the gauges (deterministic, so trace fingerprints stay
	// pinned across Parallelism settings).
	rep := qc.Report
	rep.PeakBatchBytes = qc.budget.Peak()
	rep.InternedStrings = int64(cfg.Intern.Count())
	rep.MemoryOverflowBytes = qc.budget.OverflowBytes()
	reg := opt.Trace.Metrics()
	reg.Gauge("pipeline.peak_batch_bytes").Set(float64(rep.PeakBatchBytes))
	reg.Gauge("pipeline.interned_strings").Set(float64(rep.InternedStrings))
	ms.SetInt("peak_batch_bytes", rep.PeakBatchBytes)
	ms.SetInt("interned_strings", rep.InternedStrings)
	ms.SetInt("units", int64(spec.NumUnits))
	ms.End()
	qc.spec = spec
	return nil
}

// PhysicalPlan is the Section 5 stage: the configured planner assigns
// join units to nodes, minimizing the modeled cost.
type PhysicalPlan struct{}

func (PhysicalPlan) Name() string { return "physical-plan" }

func (PhysicalPlan) Run(qc *QueryContext) error {
	c, opt := qc.Cluster, qc.Opt
	tr := opt.Trace
	reg := tr.Metrics()
	pr, err := physical.NewProblem(c.K, modelAlgo(qc.plan.Algo), qc.rsl.Sizes(), qc.rsr.Sizes(), opt.Params)
	if err != nil {
		return err
	}
	ps := tr.Root().Child("plan.physical")
	pr.Span = ps
	pres, err := planAssignment(qc, pr)
	if err != nil {
		return err
	}
	rep := qc.Report
	rep.Physical = pres
	rep.PlanTime = pres.PlanTime.Seconds()
	rep.CellsMoved = pr.CellsMoved(pres.Assignment)
	ps.SetStr("planner", pres.Planner)
	ps.SetNum("model_cost", pres.Model.Total)
	ps.SetInt("cells_moved", rep.CellsMoved)
	ps.End()
	if tr.Enabled() {
		reg.Counter("units.count").Add(int64(pr.N))
		cellsHist := reg.Histogram("units.cells", obs.PowersOf2Buckets(2, 16))
		for u := 0; u < pr.N; u++ {
			cellsHist.Observe(float64(pr.UnitTotal[u]))
		}
		reg.Counter("plan.ilp.nodes_explored").Add(pres.Search.ILPNodes)
		reg.Counter("plan.ilp.nodes_pruned").Add(pres.Search.ILPPruned)
		reg.Counter("plan.tabu.rounds").Add(int64(pres.Search.TabuRounds))
		reg.Counter("plan.tabu.moves").Add(int64(pres.Search.TabuMoves))
		reg.Counter("plan.tabu.whatifs").Add(pres.Search.TabuWhatIfs)
	}
	rep.UnitCells = append([]int64(nil), pr.UnitTotal...)
	qc.prob = pr
	qc.nodeUnits = make([][]int, c.K)
	for u := 0; u < qc.spec.NumUnits; u++ {
		dest := pres.Assignment[u]
		qc.nodeUnits[dest] = append(qc.nodeUnits[dest], u)
	}
	return nil
}

// PlanSource values recorded in Report.PlanSource.
const (
	PlanSourceCached = "cached" // signature hit, assignment revalidated
	PlanSourceGreedy = "greedy" // fast-path planners, regret within ε
	PlanSourceFull   = "full"   // full enumeration / configured planner
)

// planAssignment produces the physical assignment for the query by the
// cheapest admissible route: a revalidated cache hit, the greedy fast
// path under the regret policy, or the configured full planner. Fresh
// outcomes are stored back into the cache under the query's signature.
func planAssignment(qc *QueryContext, pr *physical.Problem) (physical.Result, error) {
	opt, rep := qc.Opt, qc.Report
	if qc.cached != nil {
		start := time.Now()
		if bd, ok := plancache.Revalidate(qc.cached, pr, 0); ok {
			return physical.Result{
				Planner:    "Cached/" + qc.cached.Source,
				Assignment: qc.cached.Assignment,
				Model:      bd,
				PlanTime:   time.Since(start),
			}, nil
		}
		// The stored assignment no longer describes the data (a
		// fingerprint collision or an externally seeded entry): evict it
		// and replan the physical half. The cached logical plan is kept —
		// the logical choice depends only on signature inputs.
		opt.Cache.RecordReject(qc.sig)
		opt.Trace.Metrics().Counter("plancache.revalidate_reject").Add(1)
		qc.fr.Record(flight.EvPlanCache, qc.qid, qc.fr.Label("revalidate-reject"), 0, 0, 0)
		rep.CacheOutcome = "revalidate-reject"
		qc.cached = nil
		rep.PlanSource = PlanSourceGreedy
		if opt.PlanPolicy == nil {
			rep.PlanSource = PlanSourceFull
		}
	}

	var pres physical.Result
	if opt.PlanPolicy != nil {
		d, err := opt.PlanPolicy.PlanPhysical(pr, opt.Planner)
		if err != nil {
			return physical.Result{}, err
		}
		pres = d.Result
		rep.PlanRegret = d.Regret
		if d.FellBack {
			// Regret policy overrode the fast path; the query paid for
			// (and benefits from) full planning.
			rep.PlanSource = PlanSourceFull
		}
	} else {
		var err error
		pres, err = opt.Planner.Plan(pr)
		if err != nil {
			return physical.Result{}, err
		}
	}
	if opt.Cache != nil && qc.sig != "" {
		opt.Cache.Store(qc.sig, &plancache.Entry{
			Logical:     *qc.plan,
			Selectivity: rep.Selectivity,
			Assignment:  pres.Assignment,
			Model:       pres.Model,
			Source:      rep.PlanSource,
		})
		// The entry is visible; wake singleflight waiters now so their
		// suppressed hits overlap this query's remaining stages.
		qc.planning.Finish()
	}
	return pres, nil
}

// Align is the Section 3.4 data alignment stage: it derives the shuffle's
// network transfers from the physical assignment and plays them through
// the lock-scheduled discrete-event simulator. It also creates the
// compare runner, which dispatches each join unit's comparison the moment
// the unit's last inbound slice lands (local-only units start before the
// simulation does).
type Align struct{}

func (Align) Name() string { return "align" }

// simPool recycles simulator instances across queries and concurrent
// pipeline runs. A reused simnet.Sim replays the alignment phase without
// allocating once its buffers reach the workload's high-water mark; the
// only steady-state allocation left in this stage is the Result clone the
// Report retains.
var simPool = sync.Pool{New: func() any { return new(simnet.Sim) }}

// acquireSim borrows the Align stage's simulator: from the query's gate
// (the scheduler's capped shared pool, which may block until an
// instance frees) or, ungated, from the process-wide simPool.
func (qc *QueryContext) acquireSim() (*simnet.Sim, error) {
	if g := qc.Opt.Gate; g != nil {
		return g.AcquireSim(qc.ctx)
	}
	return simPool.Get().(*simnet.Sim), nil
}

// releaseSim returns a simulator to wherever acquireSim got it.
func (qc *QueryContext) releaseSim(sim *simnet.Sim) {
	if g := qc.Opt.Gate; g != nil {
		g.ReleaseSim(sim)
		return
	}
	simPool.Put(sim)
}

func (Align) Run(qc *QueryContext) error {
	c, opt := qc.Cluster, qc.Opt
	tr := opt.Trace
	reg := tr.Metrics()
	rep := qc.Report

	// The destination array and the output projector are built before the
	// shuffle so the compare runner can project matches as units land.
	outArr, err := newOutputArray(qc.plan.JS)
	if err != nil {
		return err
	}
	var attrFn func(l, r *join.Tuple) []array.Value
	if opt.ProjectFactory != nil {
		attrFn, err = opt.ProjectFactory(qc.plan.JS)
		if err != nil {
			return err
		}
	}
	proj, err := newProjector(qc.plan.JS, attrFn)
	if err != nil {
		return err
	}
	qc.outArr, qc.proj = outArr, proj

	for u := 0; u < qc.spec.NumUnits; u++ {
		dest := rep.Physical.Assignment[u]
		for node := 0; node < c.K; node++ {
			cells := qc.rsl.Count(u, node) + qc.rsr.Count(u, node)
			if node != dest && cells > 0 {
				qc.transfers = append(qc.transfers, simnet.Transfer{From: node, To: dest, Cells: cells, Tag: u})
			}
		}
	}

	cfg := simnet.Config{
		Nodes:       c.K,
		PerCellTime: opt.Params.Transfer,
		Scheduling:  opt.Scheduling,
		Flight:      qc.fr,
		FlightQID:   qc.qid,
	}
	// The compare slot must be held before the runner exists: the
	// constructor dispatches local-only units immediately.
	if g := opt.Gate; g != nil {
		if err := g.AcquireCompare(qc.ctx); err != nil {
			return err
		}
		qc.compareSlot = true
	}
	qc.runner = newCompareRunner(qc)
	cfg.OnComplete = qc.runner.landed
	sim, err := qc.acquireSim()
	if err != nil {
		qc.runner.wait()
		qc.runner = nil
		return err
	}
	align, err := sim.Simulate(cfg, qc.transfers)
	if err != nil {
		qc.releaseSim(sim)
		qc.runner.wait()
		qc.runner = nil
		return err
	}
	// The Result aliases the pooled instance's buffers and the Report
	// outlives this query, so detach it before releasing the simulator.
	align = align.Clone()
	qc.releaseSim(sim)
	rep.Align = align
	rep.AlignTime = align.Makespan
	rep.LockWaitSeconds = align.LockWaitTime
	if tr.Enabled() {
		as := tr.Root().SimChild("align", 0, align.Makespan)
		as.SetInt("transfers", int64(len(align.Timeline)))
		as.SetInt("lock_waits", int64(align.LockWaits))
		as.SetInt("skipped_sends", int64(align.SkippedSends))
		as.SetNum("lock_wait_seconds", align.LockWaitTime)
		for _, ev := range align.Timeline {
			x := as.SimChild("xfer", ev.Start, ev.End)
			x.SetNum("transfer", 1)
			x.SetInt("from", int64(ev.From))
			x.SetInt("to", int64(ev.To))
			x.SetInt("unit", int64(ev.Tag))
			x.SetInt("cells", ev.Cells)
			x.End()
		}
		as.End()
		reg.Counter("align.transfers").Add(int64(len(align.Timeline)))
		reg.Counter("align.cells_moved").Add(rep.CellsMoved)
		reg.Counter("align.lock_waits").Add(int64(align.LockWaits))
		reg.Counter("align.skipped_sends").Add(int64(align.SkippedSends))
		reg.Gauge("align.lock_wait_seconds").Add(align.LockWaitTime)
		reg.Gauge("align.makespan_seconds").Add(align.Makespan)
	}
	return nil
}

// Compare is the Section 3.4 cell comparison stage. The per-unit work was
// dispatched during Align; this stage waits for it and folds the per-unit
// slots into per-node outputs. The per-node merge — join stats, modeled
// seconds, skew — happens in ascending node order on the orchestration
// goroutine, so the Report and the trace are identical at every
// Parallelism setting.
type Compare struct{}

func (Compare) Name() string { return "compare" }

func (Compare) Run(qc *QueryContext) error {
	opt := qc.Opt
	tr := opt.Trace
	reg := tr.Metrics()
	rep := qc.Report
	k := qc.Cluster.K

	qc.runner.wait()
	qc.nodes = qc.runner.fold()
	// Comparison work is over; free the gate's compare slot before the
	// (possibly long) merge and assemble tail.
	qc.releaseCompareSlot()

	rep.NodeCompareTime = make([]float64, k)
	for node := 0; node < k; node++ {
		no := &qc.nodes[node]
		if no.err != nil {
			return no.err
		}
		rep.JoinStats.Add(no.stats)
		rep.NodeCompareTime[node] = no.time
		if no.time > rep.CompareTime {
			rep.CompareTime = no.time
		}
	}
	rep.Matches = rep.JoinStats.Matches
	rep.Skew, rep.StragglerNode = skewOf(rep.NodeCompareTime)
	qc.fr.Record(flight.EvCompareDone, qc.qid, int64(rep.StragglerNode), flight.F(rep.Skew), flight.F(rep.CompareTime), 0)

	if tr.Enabled() {
		align := rep.Align
		cs := tr.Root().SimChild("compare", align.Makespan, align.Makespan+rep.CompareTime)
		cs.SetNum("skew", rep.Skew)
		cs.SetInt("straggler_node", int64(rep.StragglerNode))
		for node := 0; node < k; node++ {
			ns := cs.SimChild("compare.node", align.Makespan, align.Makespan+rep.NodeCompareTime[node])
			ns.SetNode(node)
			ns.SetInt("units", int64(len(qc.nodeUnits[node])))
			ns.SetInt("output_cells", int64(len(qc.nodes[node].cells)))
			ns.End()
		}
		cs.End()
		reg.Gauge("compare.skew").Set(rep.Skew)
		reg.Gauge("compare.straggler_node").Set(float64(rep.StragglerNode))
		reg.Counter("compare.matches").Add(rep.Matches)
		for node := 0; node < k; node++ {
			pfx := fmt.Sprintf("node%02d.", node)
			var assigned int64
			for _, u := range qc.nodeUnits[node] {
				assigned += qc.prob.UnitTotal[u]
			}
			reg.Counter(pfx + "assigned_cells").Add(assigned)
			reg.Gauge(pfx + "send_seconds").Add(align.SendBusy[node])
			reg.Gauge(pfx + "recv_seconds").Add(align.RecvBusy[node])
			reg.Gauge(pfx + "lock_wait_seconds").Add(align.RecvLockWait[node])
			reg.Gauge(pfx + "compare_seconds").Add(rep.NodeCompareTime[node])
		}
		reg.Counter("exec.steps").Add(1)
	}
	return nil
}

// Assemble is the final stage: it writes every node's output cells into
// the destination array in deterministic order (node ascending, emit
// order), clamping or rejecting out-of-range coordinates, then sorts the
// destination and closes out the report's totals.
type Assemble struct{}

func (Assemble) Name() string { return "assemble" }

func (Assemble) Run(qc *QueryContext) error {
	rep := qc.Report
	for node := range qc.nodes {
		for _, cell := range qc.nodes[node].cells {
			clamped, err := putClamped(qc.outArr, cell.Coords, cell.Attrs, qc.Opt.StrictBounds)
			if err != nil {
				return err
			}
			if clamped {
				rep.ClampedCells++
			}
		}
	}
	if tr := qc.Opt.Trace; tr.Enabled() {
		tr.Metrics().Counter("compare.clamped_cells").Add(rep.ClampedCells)
	}
	qc.outArr.SortAll()
	rep.Output = qc.outArr
	rep.Total = rep.PlanTime + rep.AlignTime + rep.CompareTime
	rep.WallTime = time.Since(qc.wallStart)
	return nil
}

// skewOf returns the straggler ratio (max/mean) of per-node modeled
// compare times and the argmax node, or (0, -1) when no node has work.
func skewOf(times []float64) (float64, int) {
	var sum, max float64
	straggler := -1
	for node, t := range times {
		sum += t
		if straggler == -1 || t > max {
			max, straggler = t, node
		}
	}
	if sum == 0 {
		return 0, -1
	}
	mean := sum / float64(len(times))
	return max / mean, straggler
}

// modelAlgo maps the plan's algorithm to one the physical cost model
// accepts; nested loop (never profitable, still executable) is modeled as
// hash for assignment purposes.
func modelAlgo(a join.Algorithm) join.Algorithm {
	if a == join.NestedLoop {
		return join.Hash
	}
	return a
}

// unitModelTime applies the Section 5.1 per-unit cost C_i.
func unitModelTime(algo join.Algorithm, p physical.CostParams, nl, nr int) float64 {
	switch algo {
	case join.Merge:
		return p.Merge * float64(nl+nr)
	case join.Hash:
		small, large := nl, nr
		if small > large {
			small, large = large, small
		}
		return p.Build*float64(small) + p.Probe*float64(large)
	default: // nested loop: every pair probed
		return p.Probe * float64(nl) * float64(nr)
	}
}

// catalogHistogram serves attribute histograms from the catalog — the
// statistics the paper's engine keeps there. Histograms are built lazily
// and cached per Distributed (see cluster.AttrHistogram), so repeated
// queries over the same array do not rescan its cells.
func catalogHistogram(c *cluster.Cluster) func(arrayName, attrName string) *stats.Histogram {
	return func(arrayName, attrName string) *stats.Histogram {
		d, err := c.Catalog.Lookup(arrayName)
		if err != nil {
			return nil
		}
		return d.AttrHistogram(attrName)
	}
}
