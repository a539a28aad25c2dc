package shufflejoin

import (
	"fmt"
	"io"
	"strings"

	"shufflejoin/internal/aql"
	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/pipeline"
)

// algoByName maps user-facing algorithm names.
func algoByName(name string) (join.Algorithm, error) {
	switch name {
	case "hash":
		return join.Hash, nil
	case "merge":
		return join.Merge, nil
	case "nestedloop", "nested-loop", "nl":
		return join.NestedLoop, nil
	}
	return 0, fmt.Errorf("shufflejoin: unknown algorithm %q", name)
}

// Result is the outcome of a query: the chosen plans, the phase timing
// breakdown, and the materialized output cells. Queries execute through
// the staged pipeline engine (LogicalPlan → SliceMap → PhysicalPlan →
// Align → Compare → Assemble; see internal/pipeline); each field's
// comment names the stage its value comes from.
type Result struct {
	// Plan is the logical plan as an AFL expression, e.g.
	// "redim(hashJoin(hash(A), hash(B)), C)" (LogicalPlan stage).
	Plan string
	// Algorithm is the cell-comparison algorithm used (LogicalPlan stage).
	Algorithm string
	// Planner names the physical planner that assigned join units
	// (PhysicalPlan stage).
	Planner string
	// PlanSource records how the plans were obtained: "cached" (plan-cache
	// hit, revalidated against current statistics), "greedy" (the
	// WithGreedyPlanning fast path), or "full" (complete enumeration and
	// the configured physical planner — including greedy-path queries
	// whose predicted regret forced the fallback). Empty for multi-way
	// queries (LogicalPlan/PhysicalPlan stages).
	PlanSource string
	// PlanRegret is the greedy plan's predicted regret against the
	// analytic cost lower bound when the greedy fast path ran; zero
	// otherwise (PhysicalPlan stage).
	PlanRegret float64
	// Matches is the number of matched cell pairs (= output cells)
	// (Compare stage).
	Matches int64
	// CellsMoved is the number of cells shipped during data alignment
	// (PhysicalPlan stage).
	CellsMoved int64
	// ClampedCells counts output cells whose coordinates fell outside the
	// destination's dimension ranges and were clamped onto the boundary.
	// Non-zero values signal a lossy store; WithStrictBounds turns them
	// into errors instead (Assemble stage).
	ClampedCells int64
	// PeakBatchBytes is the high-water mark of mapped batch storage — the
	// query's working-set bound, deterministic across Parallelism
	// settings. Multi-way queries report the largest per-step peak
	// (SliceMap stage).
	PeakBatchBytes int64
	// InternedStrings is the number of distinct strings in the query's
	// dictionary; string cells carry 4-byte codes through the shuffle
	// instead of copies (SliceMap stage; summed across multi-way steps).
	InternedStrings int64
	// MemoryOverflowBytes is how far PeakBatchBytes exceeded the budget
	// set with WithMemoryBudget — zero when no budget was set or the query
	// fit. WithStrictMemory turns overflow into an error instead (SliceMap
	// stage; summed across multi-way steps).
	MemoryOverflowBytes int64

	// Modeled phase durations in seconds, as in the paper's figures:
	// planning is real wall time (PhysicalPlan stage); alignment is the
	// simulated shuffle makespan (Align stage); comparison is the slowest
	// node's modeled time (Compare stage).
	PlanSeconds    float64
	AlignSeconds   float64
	CompareSeconds float64
	TotalSeconds   float64

	// Skew is the comparison phase's straggler ratio: the slowest node's
	// modeled compare time over the mean (1 = perfectly balanced, 0 when
	// no compare work exists). Multi-way queries report the ratio over
	// per-node times summed across steps (Compare stage).
	Skew float64
	// StragglerNode is the node with the largest modeled compare time
	// (lowest id on ties), or -1 when no compare work exists (Compare
	// stage).
	StragglerNode int
	// LockWaitSeconds is the total simulated time senders spent stalled on
	// receiver write locks during data alignment — shuffle congestion
	// (Align stage).
	LockWaitSeconds float64

	// OutputSchema is the destination schema literal.
	OutputSchema string

	// JoinOrder lists the per-step join order for multi-way queries
	// (empty for two-way joins).
	JoinOrder []string

	// Profile is the query's EXPLAIN ANALYZE digest, populated when the
	// query ran with WithProfile or WithQueryLog (nil otherwise, and nil
	// for multi-way queries). See DB.ExplainAnalyze.
	Profile *Profile

	// Per-node diagnostics backing TraceSummary (node order; summed across
	// steps for multi-way queries).
	nodeCompare  []float64
	nodeSend     []float64
	nodeRecv     []float64
	nodeLockWait []float64

	trace  *obs.Trace
	output *array.Array
}

func newResult(rep *pipeline.Report) *Result {
	return &Result{
		Plan:                rep.Logical.Describe(),
		Algorithm:           rep.Logical.Algo.String(),
		Planner:             rep.Physical.Planner,
		PlanSource:          rep.PlanSource,
		PlanRegret:          rep.PlanRegret,
		Matches:             rep.Matches,
		CellsMoved:          rep.CellsMoved,
		ClampedCells:        rep.ClampedCells,
		PeakBatchBytes:      rep.PeakBatchBytes,
		InternedStrings:     rep.InternedStrings,
		MemoryOverflowBytes: rep.MemoryOverflowBytes,
		PlanSeconds:         rep.PlanTime,
		AlignSeconds:        rep.AlignTime,
		CompareSeconds:      rep.CompareTime,
		TotalSeconds:        rep.Total,
		Skew:                rep.Skew,
		StragglerNode:       rep.StragglerNode,
		LockWaitSeconds:     rep.LockWaitSeconds,
		OutputSchema:        rep.Output.Schema.String(),
		nodeCompare:         rep.NodeCompareTime,
		nodeSend:            rep.Align.SendBusy,
		nodeRecv:            rep.Align.RecvBusy,
		nodeLockWait:        rep.Align.RecvLockWait,
		Profile:             rep.Profile,
		output:              rep.Output,
	}
}

func newMultiResult(res *aql.MultiResult) *Result {
	r := &Result{
		Plan:           strings.Join(res.Order, " ; "),
		Algorithm:      "multi",
		Matches:        res.Matches,
		PlanSeconds:    res.PlanSeconds,
		AlignSeconds:   res.AlignSeconds,
		CompareSeconds: res.CompareSeconds,
		TotalSeconds:   res.TotalSeconds,
		StragglerNode:  -1,
		OutputSchema:   res.Output.Schema.String(),
		JoinOrder:      res.Order,
		output:         res.Output,
	}
	for _, step := range res.Steps {
		r.CellsMoved += step.CellsMoved
		r.ClampedCells += step.ClampedCells
		r.LockWaitSeconds += step.LockWaitSeconds
		if step.PeakBatchBytes > r.PeakBatchBytes {
			r.PeakBatchBytes = step.PeakBatchBytes
		}
		r.InternedStrings += step.InternedStrings
		r.MemoryOverflowBytes += step.MemoryOverflowBytes
		if r.Planner == "" {
			r.Planner = step.Physical.Planner
		}
		if r.nodeCompare == nil {
			k := len(step.NodeCompareTime)
			r.nodeCompare = make([]float64, k)
			r.nodeSend = make([]float64, k)
			r.nodeRecv = make([]float64, k)
			r.nodeLockWait = make([]float64, k)
		}
		for n := range step.NodeCompareTime {
			r.nodeCompare[n] += step.NodeCompareTime[n]
			r.nodeSend[n] += step.Align.SendBusy[n]
			r.nodeRecv[n] += step.Align.RecvBusy[n]
			r.nodeLockWait[n] += step.Align.RecvLockWait[n]
		}
	}
	r.Skew, r.StragglerNode = skewOf(r.nodeCompare)
	return r
}

// skewOf returns the straggler ratio (max/mean) of per-node compare times
// and the argmax node, or (0, -1) when no node has work.
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
	return max / (sum / float64(len(times))), straggler
}

// Cell is one output cell: coordinates and attribute values (int64,
// float64, or string).
type Cell struct {
	Coords []int64
	Values []any
}

// Cells materializes the full output in deterministic order. Intended for
// small results; use Scan for large ones.
func (r *Result) Cells() []Cell {
	var out []Cell
	r.Scan(func(c Cell) bool {
		out = append(out, c)
		return true
	})
	return out
}

// Scan streams output cells in deterministic (chunk C-order) order;
// returning false stops the scan.
func (r *Result) Scan(fn func(Cell) bool) {
	r.output.Scan(func(coords []int64, attrs []array.Value) bool {
		c := Cell{Coords: append([]int64(nil), coords...)}
		c.Values = make([]any, len(attrs))
		for i, v := range attrs {
			switch v.Kind {
			case array.TypeInt64:
				c.Values[i] = v.Int
			case array.TypeFloat64:
				c.Values[i] = v.F
			default:
				c.Values[i] = v.Str
			}
		}
		return fn(c)
	})
}

// String summarizes the result for logging.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d matches via %s [%s planner]", r.Matches, r.Plan, r.Planner)
	if r.PlanSource != "" {
		fmt.Fprintf(&b, " plan_source=%s", r.PlanSource)
		if r.PlanRegret > 0 {
			fmt.Fprintf(&b, " regret=%.3f", r.PlanRegret)
		}
	}
	fmt.Fprintf(&b, " plan=%.3fs align=%.3fs compare=%.3fs total=%.3fs moved=%d cells",
		r.PlanSeconds, r.AlignSeconds, r.CompareSeconds, r.TotalSeconds, r.CellsMoved)
	if r.ClampedCells > 0 {
		fmt.Fprintf(&b, " clamped=%d cells", r.ClampedCells)
	}
	return b.String()
}

// TraceSummary renders the query's phase breakdown and skew/congestion
// diagnostics as a human-readable table: per-phase modeled times, the
// comparison-skew straggler, and per-node link activity including receiver
// lock-wait. When the query ran with WithTrace, the metric registry is
// appended. Works on untraced results too (from the always-on diagnostics).
func (r *Result) TraceSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s [%s planner, %s join]\n", r.Plan, r.Planner, r.Algorithm)
	fmt.Fprintf(&b, "matches=%d moved=%d clamped=%d\n\n", r.Matches, r.CellsMoved, r.ClampedCells)
	fmt.Fprintf(&b, "%-14s %12s\n", "phase", "modeled_s")
	fmt.Fprintf(&b, "%-14s %12.4f\n", "plan", r.PlanSeconds)
	fmt.Fprintf(&b, "%-14s %12.4f\n", "align", r.AlignSeconds)
	fmt.Fprintf(&b, "%-14s %12.4f\n", "compare", r.CompareSeconds)
	fmt.Fprintf(&b, "%-14s %12.4f\n\n", "total", r.TotalSeconds)
	if r.StragglerNode >= 0 {
		fmt.Fprintf(&b, "compare skew %.3f (straggler: node %d)\n", r.Skew, r.StragglerNode)
	} else {
		fmt.Fprintf(&b, "compare skew n/a (no compare work)\n")
	}
	fmt.Fprintf(&b, "lock wait    %.4fs total across receiver links\n", r.LockWaitSeconds)
	if len(r.nodeCompare) > 0 {
		fmt.Fprintf(&b, "\n%-6s %12s %12s %12s %14s\n", "node", "compare_s", "send_s", "recv_s", "lock_wait_s")
		for n := range r.nodeCompare {
			marker := ""
			if n == r.StragglerNode {
				marker = "  <- straggler"
			}
			fmt.Fprintf(&b, "%-6d %12.4f %12.4f %12.4f %14.4f%s\n",
				n, r.nodeCompare[n], r.nodeSend[n], r.nodeRecv[n], r.nodeLockWait[n], marker)
		}
	}
	if r.trace != nil {
		fmt.Fprintf(&b, "\nmetrics\n")
		r.trace.Metrics().WriteTable(&b)
	}
	return b.String()
}

// ChromeTrace writes the query's trace in Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing: one process per
// simulated node, transfers drawn as flow arrows between sender and
// receiver threads. The query must have run with WithTrace.
func (r *Result) ChromeTrace(w io.Writer) error {
	if r.trace == nil {
		return fmt.Errorf("shufflejoin: query ran without tracing; pass WithTrace()")
	}
	return r.trace.WriteChrome(w)
}

// MetricsJSON writes the query's metric registry as a JSON array in
// registration order. The query must have run with WithTrace.
func (r *Result) MetricsJSON(w io.Writer) error {
	if r.trace == nil {
		return fmt.Errorf("shufflejoin: query ran without tracing; pass WithTrace()")
	}
	return r.trace.Metrics().WriteJSON(w)
}

// traceFingerprint canonicalizes the span tree and metrics with wall-clock
// quantities masked; used by determinism tests.
func (r *Result) traceFingerprint() string { return r.trace.Fingerprint() }

// PlanInfo is one candidate logical plan in an Explain result.
type PlanInfo struct {
	Plan        string // AFL rendering, e.g. "mergeJoin(redim(A), redim(B))"
	Algorithm   string
	Units       string // "chunks" or "hash buckets"
	NumUnits    int
	Cost        float64 // total modeled cost (abstract per-cell units)
	AlignCost   float64
	CompareCost float64
	OutputCost  float64
}

// Explanation is the optimizer's view of a query: the selectivity estimate
// it used and every valid logical plan, cheapest first.
type Explanation struct {
	Selectivity float64
	Plans       []PlanInfo
}

// SaveAs registers the query output as a new array in the database so
// follow-up queries can join against it (materialized query chaining).
func (r *Result) SaveAs(db *DB, name string) (*Array, error) {
	if name == "" {
		return nil, fmt.Errorf("shufflejoin: SaveAs needs a name")
	}
	out := r.output.Clone()
	out.Schema.Name = name
	ar := &Array{db: db, inner: out}
	ar.Seal()
	return ar, nil
}
