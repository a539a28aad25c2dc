package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shufflejoin"
)

// sizes are a workload's input sizes; tests shrink them.
type sizes struct {
	interactiveCells int // per side, uniform
	scanCells        int // per side, Zipf-1.2 chunk density
	modisCells       int
	aisCells         int
	deltaCells       int
	mixLen           int // length of the deterministic job sequence
}

var fullSizes = sizes{
	interactiveCells: 2000,
	scanCells:        24000,
	modisCells:       170_000,
	aisCells:         110_000,
	deltaCells:       2000,
	mixLen:           4096,
}

const (
	nodes           = 4
	scanSkew        = 1.2
	memoryPoolBytes = 256 << 20
)

// qspec is how a template runs: the facade options and their mirror
// equivalents derive from it.
type qspec struct {
	planner string // "" = the facade default (min-bandwidth)
	par     int    // WithParallelism (0 = one worker per CPU)
	algo    string // forced join algorithm, "" = planner's choice
	cache   bool   // shared warm plan cache
	sched   bool   // admission through the shared scheduler
	class   string // scheduler class
	// Join key positions in each input's coordinates. Every query
	// projects the first attribute of each side.
	leftKeys, rightKeys []int
}

// template is one resident query shape of a workload.
type template struct {
	name        string
	query       string
	spec        qspec
	left, right *dataset
	want        want
	ref         outcome // serial reference
	checkAlloc  uint64  // bytes one output check allocates
}

// outcome is the part of a result the traced run must reproduce.
type outcome struct {
	matches int64
	moved   int64
	modeled float64 // align + compare seconds
}

func (o outcome) String() string {
	return fmt.Sprintf("matches=%d moved=%d modeled=%.9gs", o.matches, o.moved, o.modeled)
}

// env is one set-up workload: the database, its inputs and oracles, and
// the per-run accumulators.
type env struct {
	name    string
	seed    int64
	sz      sizes
	clients int

	db    *shufflejoin.DB
	sched *shufflejoin.Scheduler
	cache *shufflejoin.PlanCache

	data  []*dataset // resident inputs, in load order
	tmpls []*template
	mix   []*template // serve_mix job sequence
	next  atomic.Int64

	// ingest_mix writer state.
	scan    *dataset // the resident array deltas join
	scanIdx keyIndex // scan's cells by coordinate
	// insertMu keeps readers' queries out while the writer fills a new
	// array: the facade publishes an array to every query's sealAll at
	// CreateArray, so a concurrent query would sort it mid-Insert (a
	// data race that panics in the engine) or seal it early and fail the
	// writer's next Insert. A client of the current API has to
	// coordinate this itself; readers' waits here count in their latency.
	insertMu   sync.RWMutex
	deltaNext  atomic.Int64
	bytesCell  float64 // check allocation per output cell, for deltas
	deltaAlloc uint64  // allocation of generating one delta and its oracle

	mirror *mirror

	mu        sync.Mutex
	deltaRefs map[int64]outcome // untraced outcome per delta index
	acc       map[string]*accum
	modeled   []float64 // modeled ms of measured writer ops (ingest_mix)
	ownB      uint64    // calibrated allocations of the benchmark's own work in the region
}

type accum struct {
	sum float64
	n   int
	max float64
}

func (e *env) add(name string, v float64) {
	e.mu.Lock()
	a := e.acc[name]
	if a == nil {
		a = &accum{}
		e.acc[name] = a
	}
	a.sum += v
	a.n++
	if v > a.max {
		a.max = v
	}
	e.mu.Unlock()
}

// mean returns the mean of an accumulator, 0 if it never received a value.
func (e *env) mean(name string) float64 {
	a := e.acc[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

func newEnv(w *workload, seed int64, sz sizes) *env {
	return &env{
		name:      w.name,
		seed:      seed,
		sz:        sz,
		clients:   w.clients(),
		deltaRefs: make(map[int64]outcome),
		acc:       make(map[string]*accum),
	}
}

// workload describes one benchmark workload.
type workload struct {
	name    string
	why     string
	primary string // the op class p50_ms and tail_ms report
	clients func() int
	build   func(e *env) error // generate, load and create templates
	op      func(e *env, m mode, client int) (opResult, error)
}

var workloads = []*workload{serveMix, geoSkew, ingestMix}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func nproc() int { return runtime.NumCPU() }

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

const (
	qInteractive = "SELECT IA.v, IB.w FROM IA, IB WHERE IA.i = IB.i"
	qScan        = "SELECT SA.v, SB.w FROM SA, SB WHERE SA.i = SB.i"
	qGeo         = "SELECT Band1.reflectance, Broadcast.ship_id FROM Band1, Broadcast " +
		"WHERE Band1.longitude = Broadcast.longitude AND Band1.latitude = Broadcast.latitude"
)

func deltaQuery(name string) string {
	return "SELECT " + name + ".x, SA.v FROM " + name + ", SA WHERE " + name + ".i = SA.i"
}

var servingSpec = qspec{par: 1, cache: true, sched: true, leftKeys: []int{0}, rightKeys: []int{0}}

// interactiveTemplate is the small uniform join both serving workloads
// run; ingest_mix runs it without the plan cache, so nothing there plans
// from cache.
func interactiveTemplate(e *env, cache bool) *template {
	ia := pairSide("IA", "v", e.sz.interactiveCells, 0, rngFor(e.seed, 1))
	ib := pairSide("IB", "w", e.sz.interactiveCells, 0, rngFor(e.seed, 2))
	e.data = append(e.data, ia, ib)
	spec := servingSpec
	spec.class = "interactive"
	spec.cache = cache
	return &template{name: "interactive", query: qInteractive, spec: spec, left: ia, right: ib}
}

var serveMix = &workload{
	name:    "serve_mix",
	primary: "interactive",
	why:     "multi-tenant read path: catalog lock, admission, cached plans, overlapped align/compare and per-cell assemble; planning bypassed",
	clients: nproc,
	build: func(e *env) error {
		it := interactiveTemplate(e, true)
		sa := pairSide("SA", "v", e.sz.scanCells, scanSkew, rngFor(e.seed, 3))
		sb := pairSide("SB", "w", e.sz.scanCells, scanSkew, rngFor(e.seed, 4))
		e.data = append(e.data, sa, sb)
		spec := servingSpec
		spec.class = "scan"
		st := &template{name: "scan", query: qScan, spec: spec, left: sa, right: sb}
		e.tmpls = []*template{it, st}
		// Every block of four jobs holds three interactive queries and one
		// scan in seeded order, so any prefix of the sequence — whatever
		// a run completes — is within one job of the 75/25 split.
		rng := rngFor(e.seed, 5)
		e.mix = make([]*template, 0, e.sz.mixLen)
		for len(e.mix) < e.sz.mixLen {
			block := []*template{it, it, it, st}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			e.mix = append(e.mix, block...)
		}
		return nil
	},
	op: func(e *env, m mode, client int) (opResult, error) {
		t := e.mix[int(e.next.Add(1)-1)%len(e.mix)]
		return e.runTemplate(t, m, client)
	},
}

var geoSkew = &workload{
	name:    "geo_skew",
	primary: "geo",
	why:     "paper 6.3.1 beneficial-skew AIS x MODIS merge join: cold tabu planning and slice mapping over 4,050 geo units; assemble and locks bypassed",
	clients: func() int { return 1 },
	build: func(e *env) error {
		band := modisLike("Band1", e.sz.modisCells, rngFor(e.seed, 11))
		ships := aisLike("Broadcast", e.sz.aisCells, rngFor(e.seed, 12))
		e.data = append(e.data, band, ships)
		spec := qspec{planner: "tabu", algo: "merge", leftKeys: []int{1, 2}, rightKeys: []int{1, 2}}
		e.tmpls = []*template{{name: "geo", query: qGeo, spec: spec, left: band, right: ships}}
		return nil
	},
	op: func(e *env, m mode, client int) (opResult, error) {
		return e.runTemplate(e.tmpls[0], m, client)
	},
}

var ingestMix = &workload{
	name:    "ingest_mix",
	primary: "ingest",
	why:     "1 writer (create, insert, seal, cold-planned join of a delta) beside interactive readers: catalog write lock and planner from the write side",
	clients: func() int {
		if n := nproc(); n > 2 {
			return n
		}
		return 2
	},
	build: func(e *env) error {
		it := interactiveTemplate(e, false)
		e.scan = pairSide("SA", "v", e.sz.scanCells, scanSkew, rngFor(e.seed, 3))
		e.data = append(e.data, e.scan)
		e.tmpls = []*template{it}
		return nil
	},
	op: func(e *env, m mode, client int) (opResult, error) {
		if client == 0 {
			return e.ingestOp(m)
		}
		return e.runTemplate(e.tmpls[0], m, client)
	},
}

// facadeOptions are a spec's DB.Query options.
func (e *env) facadeOptions(s qspec, serial bool) []shufflejoin.QueryOption {
	par := s.par
	if serial {
		par = 1
	}
	opts := []shufflejoin.QueryOption{shufflejoin.WithParallelism(par)}
	if s.planner != "" {
		opts = append(opts, shufflejoin.WithPlanner(s.planner))
	}
	if s.algo != "" {
		opts = append(opts, shufflejoin.WithAlgorithm(s.algo))
	}
	if s.cache {
		opts = append(opts, shufflejoin.WithPlanCache(e.cache))
	}
	if s.sched && !serial {
		opts = append(opts, shufflejoin.WithScheduler(e.sched), shufflejoin.WithQueryClass(s.class))
	}
	return opts
}

func outcomeOf(r *shufflejoin.Result) outcome {
	return outcome{matches: r.Matches, moved: r.CellsMoved, modeled: r.AlignSeconds + r.CompareSeconds}
}

// setup generates the inputs, loads them through the facade, seals them
// and warms up with one serial reference run per template (which also
// fills the shared plan cache). It returns the set-up wall time.
func (e *env) setup(w *workload) (time.Duration, error) {
	start := time.Now()
	e.data, e.tmpls, e.mix = nil, nil, nil
	if err := w.build(e); err != nil {
		return 0, err
	}
	db, err := shufflejoin.Open(nodes)
	if err != nil {
		return 0, err
	}
	e.db = db
	e.cache = shufflejoin.NewPlanCache()
	e.sched = db.NewScheduler(shufflejoin.SchedulerConfig{MaxQueries: e.clients, MemoryPoolBytes: memoryPoolBytes})
	for _, d := range e.data {
		if _, err := d.load(db); err != nil {
			return 0, err
		}
	}
	results := make([]*shufflejoin.Result, len(e.tmpls))
	for i, t := range e.tmpls {
		r, err := db.Query(t.query, e.facadeOptions(t.spec, true)...)
		if err != nil {
			return 0, fmt.Errorf("%s reference run: %w", t.name, err)
		}
		results[i] = r
	}
	elapsed := time.Since(start)
	// Oracles and check calibration are the benchmark's own work, outside
	// the set-up time.
	for i, t := range e.tmpls {
		t.want = expectJoin(t.left, t.spec.leftKeys, t.right, t.right.indexBy(t.spec.rightKeys))
		d := digestResult(results[i])
		if err := t.want.check(results[i].Matches, d); err != nil {
			return 0, fmt.Errorf("%s serial reference: %w", t.name, err)
		}
		t.want.ordered = d.ordered
		t.ref = outcomeOf(results[i])
		t.checkAlloc = allocOf(func() { digestResult(results[i]) })
		if t.name == "interactive" && d.cells > 0 {
			e.bytesCell = float64(t.checkAlloc) / float64(d.cells)
		}
	}
	if e.scan != nil {
		e.scanIdx = e.scan.indexBy([]int{0})
		e.deltaAlloc = allocOf(func() { e.delta(-1) })
	}
	return elapsed, nil
}

// allocOf measures the bytes fn allocates (the least of three runs), so
// the benchmark's own work — output checks, delta generation — can be
// taken out of a region's allocation total. That work allocates the same
// amount every time for a given template.
func allocOf(fn func()) uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		runtime.GC()
		before := readRuntime()
		fn()
		after := readRuntime()
		b := after[0].Value.Uint64() - before[0].Value.Uint64()
		if i == 0 || b < best {
			best = b
		}
	}
	return best
}

// runTemplate runs one resident query in the given mode and checks it.
func (e *env) runTemplate(t *template, m mode, client int) (opResult, error) {
	if m == modeMirror {
		return e.mirror.runTemplate(e, t, client)
	}
	opts := e.facadeOptions(t.spec, false)
	if m == modeProfiled {
		opts = append(opts, shufflejoin.WithProfile())
	}
	t0 := time.Now()
	if e.scan != nil {
		e.insertMu.RLock()
	}
	tq := time.Now()
	res, err := e.db.Query(t.query, opts...)
	qlat := time.Since(tq)
	if e.scan != nil {
		e.insertMu.RUnlock()
	}
	lat := time.Since(t0)
	if err != nil {
		return opResult{}, fmt.Errorf("%s: %w", t.name, err)
	}
	if err := e.checkResult(t.name, t.want, t.ref, res, t.checkAlloc); err != nil {
		return opResult{}, err
	}
	if m == modeProfiled {
		e.addOverhead(qlat, res)
	}
	return opResult{class: t.name, lat: lat}, nil
}

// checkResult verifies a facade result against its oracle and, where a
// reference outcome exists, against the serial reference's cells moved and
// modeled seconds.
func (e *env) checkResult(name string, w want, ref outcome, res *shufflejoin.Result, checkAlloc uint64) error {
	if err := w.check(res.Matches, digestResult(res)); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if ref != (outcome{}) && outcomeOf(res) != ref {
		return fmt.Errorf("%s: %v differs from the serial reference %v", name, outcomeOf(res), ref)
	}
	e.mu.Lock()
	e.ownB += checkAlloc
	e.mu.Unlock()
	return nil
}

// addOverhead records the facade's own cost of a profiled query: its
// DB.Query wall time minus the wall time of its pipeline stages.
func (e *env) addOverhead(lat time.Duration, res *shufflejoin.Result) {
	if res.Profile == nil {
		return
	}
	var stages float64
	for _, s := range res.Profile.Stages {
		stages += s.WallSeconds
	}
	e.add("shufflejoin.overhead_ms", lat.Seconds()*1e3-stages*1e3)
}

// delta generates the k-th ingest delta and its oracle.
func (e *env) delta(k int64) (*dataset, string, want) {
	name := "D" + strconv.FormatInt(k, 10)
	d := deltaSide(name, e.sz.deltaCells, int64(e.sz.scanCells)*2, rngFor(e.seed, 1000+k))
	return d, name, expectJoin(d, []int{0}, e.scan, e.scanIdx)
}

var writerSpec = qspec{par: 1, sched: true, class: "scan"}

// ingestOp is one writer operation: create a fresh delta array, insert
// its cells, seal it, and join it against the resident scan array with
// cold planning. Generating the delta and its oracle is not timed.
func (e *env) ingestOp(m mode) (opResult, error) {
	k := e.deltaNext.Add(1) - 1
	d, name, w := e.delta(k)
	e.mu.Lock()
	e.ownB += e.deltaAlloc
	e.mu.Unlock()
	if m == modeMirror {
		return e.mirror.ingestOp(e, k, d, name, w)
	}
	opts := e.facadeOptions(writerSpec, false)
	if m == modeProfiled {
		opts = append(opts, shufflejoin.WithProfile())
	}
	t0 := time.Now()
	e.insertMu.Lock()
	ar, err := d.load(e.db)
	e.insertMu.Unlock()
	if err != nil {
		return opResult{}, fmt.Errorf("ingest %s: %w", name, err)
	}
	ts := time.Now()
	ar.Seal()
	seal := time.Since(ts)
	tq := time.Now()
	res, err := e.db.Query(deltaQuery(name), opts...)
	qlat := time.Since(tq)
	lat := time.Since(t0)
	if err != nil {
		return opResult{}, fmt.Errorf("ingest %s: %w", name, err)
	}
	checkAlloc := uint64(e.bytesCell * float64(res.Matches))
	if err := e.checkResult("ingest "+name, w, outcome{}, res, checkAlloc); err != nil {
		return opResult{}, err
	}
	o := outcomeOf(res)
	e.mu.Lock()
	if m == modeUntraced {
		e.deltaRefs[k] = o
	}
	e.modeled = append(e.modeled, o.modeled*1e3)
	e.mu.Unlock()
	if m == modeProfiled {
		e.add("shufflejoin.seal_ms", seal.Seconds()*1e3)
		e.addOverhead(qlat, res)
	}
	return opResult{class: "ingest", lat: lat}, nil
}

// modeledPerQuery is the paper's metric over the workload's job mix:
// align plus compare makespan, mix-weighted over the resident templates,
// or over the measured writer ops for ingest_mix.
func (e *env) modeledPerQuery() float64 {
	if e.mix != nil {
		var sum float64
		for _, t := range e.mix {
			sum += t.ref.modeled
		}
		return sum / float64(len(e.mix)) * 1e3
	}
	if e.scan != nil {
		if len(e.modeled) == 0 {
			return 0
		}
		var sum float64
		for _, v := range e.modeled {
			sum += v
		}
		return sum / float64(len(e.modeled))
	}
	return e.tmpls[0].ref.modeled * 1e3
}
