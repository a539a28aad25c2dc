package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"shufflejoin/internal/aql"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/par"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/sched"
	"shufflejoin/internal/simnet"
)

// mode selects how an operation runs.
type mode int

const (
	modeUntraced mode = iota // DB.Query, as a user calls it
	modeProfiled             // DB.Query with WithProfile: facade overhead
	modeMirror               // the facade's path rebuilt from layer entry points
)

// span is one timed call into a layer.
type span struct {
	name       string
	parent     int // index of the parent span, -1 for the root
	start, end time.Time
}

// qtrace holds one query's spans. Span 0 is the root: the whole
// operation. Methods are safe for concurrent use and no-ops on nil.
type qtrace struct {
	mu    sync.Mutex
	spans []span
	cur   int // innermost open stage span, parent of gate and planner spans
}

func newQTrace() *qtrace {
	return &qtrace{spans: []span{{name: "query", parent: -1, start: time.Now()}}}
}

func (q *qtrace) begin(name string, parent int) int {
	if q == nil {
		return -1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.spans = append(q.spans, span{name: name, parent: parent, start: time.Now()})
	return len(q.spans) - 1
}

// beginInStage opens a span under the currently running stage.
func (q *qtrace) beginInStage(name string) int {
	if q == nil {
		return -1
	}
	q.mu.Lock()
	parent := q.cur
	q.mu.Unlock()
	return q.begin(name, parent)
}

func (q *qtrace) end(i int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.spans[i].end = time.Now()
	q.mu.Unlock()
}

func (q *qtrace) setStage(i int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.cur = i
	q.mu.Unlock()
}

// finish closes the root span.
func (q *qtrace) finish() { q.end(0) }

// wall is the root span's duration.
func (q *qtrace) wall() time.Duration { return q.spans[0].end.Sub(q.spans[0].start) }

// selfTimes returns each span name's self time: the span's duration minus
// the part of its interval its child spans cover.
func (q *qtrace) selfTimes() map[string]time.Duration {
	children := make([][]int, len(q.spans))
	for i, s := range q.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range q.spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[i] {
			a, b := q.spans[c].start, q.spans[c].end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for j, v := range ivs {
			if j == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			} else if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		out[s.name] += s.end.Sub(s.start) - covered
	}
	return out
}

// timedStage wraps a pipeline stage in a span.
type timedStage struct {
	pipeline.Stage
	qt     *qtrace
	parent int
}

func (s timedStage) Run(qc *pipeline.QueryContext) error {
	i := s.qt.begin(s.Name(), s.parent)
	s.qt.setStage(i)
	err := s.Stage.Run(qc)
	s.qt.end(i)
	s.qt.setStage(s.parent)
	return err
}

// timedPlanner wraps the physical planner in a span.
type timedPlanner struct {
	inner physical.Planner
	qt    *qtrace
}

func (p timedPlanner) Name() string { return p.inner.Name() }

func (p timedPlanner) Plan(pr *physical.Problem) (physical.Result, error) {
	i := p.qt.beginInStage("physical.planner")
	defer p.qt.end(i)
	return p.inner.Plan(pr)
}

// timedGate wraps the scheduler ticket, timing the waits for the shared
// simulator pool and the compare slots.
type timedGate struct {
	inner pipeline.Gate
	qt    *qtrace
}

func (g timedGate) AcquireSim(ctx context.Context) (*simnet.Sim, error) {
	i := g.qt.beginInStage("sched.sim_wait")
	defer g.qt.end(i)
	return g.inner.AcquireSim(ctx)
}

func (g timedGate) ReleaseSim(s *simnet.Sim) { g.inner.ReleaseSim(s) }

func (g timedGate) AcquireCompare(ctx context.Context) error {
	i := g.qt.beginInStage("sched.compare_wait")
	defer g.qt.end(i)
	return g.inner.AcquireCompare(ctx)
}

func (g timedGate) ReleaseCompare() { g.inner.ReleaseCompare() }

// mirror is a second engine instance holding the same inputs as the
// facade DB, driven through the layers' entry points so every layer
// call can be timed from outside: aql.Parse, aql.Compile,
// sched.Scheduler.Admit, and pipeline.Execute over DefaultStages.
type mirror struct {
	c     *cluster.Cluster
	mu    sync.RWMutex // guards the catalog, as the facade's lock does
	sched *sched.Scheduler
	cache *plancache.Cache
	flip  []bool // per client: whether its next op is instrumented
}

func newMirror(e *env) (*mirror, error) {
	c, err := cluster.New(nodes)
	if err != nil {
		return nil, err
	}
	for _, d := range e.data {
		if err := d.loadMirror(c); err != nil {
			return nil, err
		}
	}
	m := &mirror{
		c:     c,
		sched: sched.New(sched.Config{MaxQueries: e.clients, PoolBytes: memoryPoolBytes}),
		cache: plancache.New(),
		flip:  make([]bool, e.clients),
	}
	// Warm the mirror's plan cache as set-up warmed the facade's.
	for _, t := range e.tmpls {
		if _, _, err := m.query(t.query, t.spec, false); err != nil {
			return nil, fmt.Errorf("mirror warm-up %s: %w", t.name, err)
		}
	}
	return m, nil
}

// instrumented alternates a client's ops between the instrumented and
// the plain path, so both see the same load and job mix.
func (m *mirror) instrumented(client int) bool {
	m.flip[client] = !m.flip[client]
	return m.flip[client]
}

// query runs one query through the layer entry points, mirroring what
// DB.Query does. With instrument, every layer call is a span.
func (m *mirror) query(q string, s qspec, instrument bool) (*pipeline.Report, *qtrace, error) {
	var qt *qtrace
	if instrument {
		qt = newQTrace()
	}
	i := qt.begin("aql.parse", 0)
	parsed, err := aql.Parse(q)
	qt.end(i)
	if err != nil {
		return nil, nil, err
	}
	if len(parsed.Filters) > 0 || len(parsed.From) > 2 {
		return nil, nil, fmt.Errorf("mirror: only two-way joins without filters")
	}
	m.mu.RLock()
	dl, errL := m.c.Catalog.Lookup(parsed.Left)
	dr, errR := m.c.Catalog.Lookup(parsed.Right)
	m.mu.RUnlock()
	if errL != nil {
		return nil, nil, errL
	}
	if errR != nil {
		return nil, nil, errR
	}
	i = qt.begin("aql.compile", 0)
	comp, err := aql.Compile(parsed, dl.Array.Schema, dr.Array.Schema)
	qt.end(i)
	if err != nil {
		return nil, nil, err
	}

	var planner physical.Planner = physical.MinBandwidthPlanner{}
	if s.planner == "tabu" {
		planner = physical.TabuPlanner{Workers: par.Workers(s.par)}
	}
	opt := pipeline.Options{Parallelism: s.par, QueryLabel: q}
	if s.cache {
		opt.Cache = m.cache
	}
	if s.algo == "merge" {
		a := join.Merge
		opt.ForceAlgo = &a
	}
	if s.sched {
		class, err := sched.ParseClass(s.class)
		if err != nil {
			return nil, nil, err
		}
		i = qt.begin("sched.admit", 0)
		ticket, err := m.sched.Admit(context.Background(), class, 0, q)
		qt.end(i)
		if err != nil {
			return nil, nil, err
		}
		defer ticket.Done()
		opt.Gate = ticket
		opt.MemoryBudget = ticket.MemoryBytes()
	}
	stages := pipeline.DefaultStages()
	if instrument {
		planner = timedPlanner{inner: planner, qt: qt}
		if opt.Gate != nil {
			opt.Gate = timedGate{inner: opt.Gate, qt: qt}
		}
	}
	opt.Planner = planner
	qc := pipeline.NewQueryContext(m.c, dl, dr, comp.Pred, comp.Out, comp.ExecOptions(opt))
	i = qt.begin("pipeline.execute", 0)
	if instrument {
		for j, st := range stages {
			stages[j] = timedStage{Stage: st, qt: qt, parent: i}
		}
		qt.setStage(i)
	}
	err = pipeline.Execute(qc, stages)
	qt.end(i)
	qt.finish()
	if err != nil {
		return nil, nil, err
	}
	return qc.Report, qt, nil
}

func reportOutcome(r *pipeline.Report) outcome {
	return outcome{matches: r.Matches, moved: r.CellsMoved, modeled: r.AlignTime + r.CompareTime}
}

// record checks a mirror query against its oracle and the untraced
// outcome, and folds an instrumented query's layer times into the
// workload's accumulators.
func (m *mirror) record(e *env, name string, w want, ref outcome, rep *pipeline.Report, qt *qtrace) error {
	if err := w.check(rep.Matches, digestArray(rep.Output)); err != nil {
		return fmt.Errorf("traced %s: %w", name, err)
	}
	if ref != (outcome{}) && reportOutcome(rep) != ref {
		return fmt.Errorf("traced %s: %v differs from the untraced run's %v", name, reportOutcome(rep), ref)
	}
	if qt == nil {
		return nil
	}
	self := qt.selfTimes()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if wall := qt.wall(); sum > wall {
		return fmt.Errorf("traced %s: layer self times sum to %v, more than the query's %v", name, sum, wall)
	}
	ms := func(n string) float64 { return self[n].Seconds() * 1e3 }
	e.add("aql.parse_us", self["aql.parse"].Seconds()*1e6)
	e.add("aql.compile_us", self["aql.compile"].Seconds()*1e6)
	e.add("sched.admit_wait_ms", ms("sched.admit"))
	e.add("sched.sim_wait_ms", ms("sched.sim_wait"))
	e.add("sched.compare_wait_ms", ms("sched.compare_wait"))
	e.add("pipeline.ms", ms("pipeline.execute"))
	e.add("logical.ms", ms("logical-plan"))
	e.add("shuffle.ms", ms("slice-map"))
	e.add("physical.ms", ms("physical-plan"))
	e.add("physical.planner_ms", ms("physical.planner"))
	e.add("simnet.ms", ms("align"))
	e.add("join.ms", ms("compare"))
	e.add("array.assemble_ms", ms("assemble"))
	if rep.Matches > 0 {
		e.add("array.assemble_ns_per_cell", float64(self["assemble"].Nanoseconds())/float64(rep.Matches))
	}
	e.add("physical.cells_moved", float64(rep.CellsMoved))
	e.add("shuffle.peak_batch_mb", float64(rep.PeakBatchBytes)/1e6)
	e.add("simnet.modeled_align_ms", rep.AlignTime*1e3)
	e.add("simnet.lock_wait_ms", rep.LockWaitSeconds*1e3)
	e.add("join.modeled_compare_ms", rep.CompareTime*1e3)
	e.add("join.skew", rep.Skew)
	return nil
}

// runTemplate is env.runTemplate on the mirror.
func (m *mirror) runTemplate(e *env, t *template, client int) (opResult, error) {
	instr := m.instrumented(client)
	t0 := time.Now()
	rep, qt, err := m.query(t.query, t.spec, instr)
	lat := time.Since(t0)
	if err != nil {
		return opResult{}, fmt.Errorf("traced %s: %w", t.name, err)
	}
	if err := m.record(e, t.name, t.want, t.ref, rep, qt); err != nil {
		return opResult{}, err
	}
	return opResult{class: classLabel(t.name, instr), lat: lat}, nil
}

// ingestOp is env.ingestOp on the mirror: the delta is built and
// distributed under the catalog write lock, then joined.
func (m *mirror) ingestOp(e *env, k int64, d *dataset, name string, w want) (opResult, error) {
	instr := m.instrumented(0)
	t0 := time.Now()
	m.mu.Lock()
	err := d.loadMirror(m.c)
	m.mu.Unlock()
	if err != nil {
		return opResult{}, fmt.Errorf("traced ingest %s: %w", name, err)
	}
	rep, qt, err := m.query(deltaQuery(name), writerSpec, instr)
	lat := time.Since(t0)
	if err != nil {
		return opResult{}, fmt.Errorf("traced ingest %s: %w", name, err)
	}
	e.mu.Lock()
	ref := e.deltaRefs[k]
	e.mu.Unlock()
	if err := m.record(e, "ingest "+name, w, ref, rep, qt); err != nil {
		return opResult{}, err
	}
	return opResult{class: classLabel("ingest", instr), lat: lat}, nil
}

// classLabel marks instrumented samples so the traced and plain
// latencies can be compared.
func classLabel(name string, instrumented bool) string {
	if instrumented {
		return name + "+trace"
	}
	return name
}
