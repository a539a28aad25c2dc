// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload from a seed, loads it through the public facade
// (CreateArray/Insert), drives DB.Query from closed-loop clients for a
// fixed time, checks every output against oracles computed from the
// generated inputs, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload serve_mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it reports per-layer metrics: it splits the time into an
// untraced region (runtime counters, reference outcomes), a profiled
// facade region (the facade's own cost), and a region that rebuilds the
// facade's query path from the layers' entry points with every layer
// call timed. WORKLOADS.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported by
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb_per_query", "MB"},
	{"modeled_ms_per_query", "ms"},
}

// perLayer are the metrics of a traced run (--trace 1), named by module.
// Times are self times per query, averaged over the instrumented queries.
var perLayer = []metricDef{
	{"shufflejoin.overhead_ms", "ms"},
	{"shufflejoin.seal_ms", "ms"},
	{"sched.admit_wait_ms", "ms"},
	{"sched.sim_wait_ms", "ms"},
	{"sched.compare_wait_ms", "ms"},
	{"aql.parse_us", "us"},
	{"aql.compile_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"pipeline.ms", "ms"},
	{"logical.ms", "ms"},
	{"physical.ms", "ms"},
	{"physical.planner_ms", "ms"},
	{"physical.cells_moved", "count"},
	{"shuffle.ms", "ms"},
	{"shuffle.peak_batch_mb", "MB"},
	{"simnet.ms", "ms"},
	{"simnet.modeled_align_ms", "ms"},
	{"simnet.lock_wait_ms", "ms"},
	{"join.ms", "ms"},
	{"join.modeled_compare_ms", "ms"},
	{"join.skew", "ratio"},
	{"array.assemble_ms", "ms"},
	{"array.assemble_ns_per_cell", "ns/cell"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_per_query", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// A run sets its workload up at least minSetups times and until the
// set-ups took setupBudget together (at most maxSetups times); setup_s is
// their median and the last set-up is measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve_mix, geo_skew or ingest_mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve_mix|geo_skew|ingest_mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := runBenchmark(runConfig{
		w:     w,
		seed:  *seed,
		d:     time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1,
		sz:    fullSizes,
		out:   stdout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exitCode(res)
}

// exitCode fails the command when any output check failed.
func exitCode(res result) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runConfig is one benchmark run.
type runConfig struct {
	w     *workload
	seed  int64
	d     time.Duration // measured time
	trace bool          // per-layer run
	sz    sizes
	out   io.Writer
	// plant, when set, runs after set-up; tests use it to corrupt an
	// expected output.
	plant func(*env)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runBenchmark sets the workload up several times and measures the last
// set-up.
func runBenchmark(cfg runConfig) (result, error) {
	w, seed, d, out := cfg.w, cfg.seed, cfg.d, cfg.out
	e := newEnv(w, seed, cfg.sz)
	fmt.Fprintf(out, "workload %s: seed %d, %d closed-loop client(s), %d nodes, GOMAXPROCS %d\n",
		w.name, seed, e.clients, nodes, runtime.GOMAXPROCS(0))
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		e.db = nil
		runtime.GC()
		t, err := e.setup(w)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t.Seconds())
		spent += t
	}
	fmt.Fprintf(out, "set-up (generate, load, seal, warm up) x%d: %s s\n", len(setups), floats(setups, "%.4f"))
	for _, dd := range e.data {
		fmt.Fprintf(out, "  input %s: %d cells\n", dd.schema, len(dd.coords))
	}
	for _, t := range e.tmpls {
		fmt.Fprintf(out, "  template %s: %s; reference %v\n", t.name, t.query, t.ref)
	}

	if cfg.plant != nil {
		cfg.plant(e)
	}
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	set := func(defs []metricDef, name string, v float64) {
		for _, def := range defs {
			if def.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: def.unit}
				fmt.Fprintf(out, "metric %s %.6g %s\n", name, v, def.unit)
				return
			}
		}
		panic("perfbench: unknown metric " + name)
	}
	tally := func(r loopResult) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, msg := range r.errs {
			fmt.Fprintf(out, "FAILED: %s\n", msg)
		}
	}

	if !cfg.trace {
		r := e.measure(modeUntraced, d, out)
		tally(r)
		lat := summarize(r.byClass[w.primary])
		set(endToEnd, "setup_s", median(setups))
		set(endToEnd, "qps", r.qps())
		set(endToEnd, "p50_ms", lat.p50ms)
		set(endToEnd, "tail_ms", lat.tailms)
		set(endToEnd, "alloc_mb_per_query", e.allocPerQuery(r))
		set(endToEnd, "modeled_ms_per_query", e.modeledPerQuery())
	} else {
		third := d / 3
		u := e.measure(modeUntraced, third, out)
		tally(u)
		p := e.measure(modeProfiled, third, out)
		tally(p)
		m, err := newMirror(e)
		if err != nil {
			return result{}, err
		}
		e.mirror = m
		e.deltaNext.Store(0)
		before := m.cache.Stats()
		t := e.measure(modeMirror, third, out)
		tally(t)
		after := m.cache.Stats()
		var traced, plain []time.Duration
		for class, ds := range t.byClass {
			if strings.HasSuffix(class, "+trace") {
				traced = append(traced, ds...)
			} else {
				plain = append(plain, ds...)
			}
		}
		overhead := 0.0
		if len(traced) > 0 && len(plain) > 0 {
			overhead = summarize(traced).p50ms/summarize(plain).p50ms - 1
		}
		hits := after.Hits - before.Hits
		lookups := hits + after.Misses - before.Misses
		hitRatio := 0.0
		if lookups > 0 {
			hitRatio = float64(hits) / float64(lookups)
		}
		for _, def := range perLayer {
			switch def.name {
			case "plancache.hit_ratio":
				set(perLayer, def.name, hitRatio)
			case "shuffle.peak_batch_mb":
				if a := e.acc[def.name]; a != nil {
					set(perLayer, def.name, a.max)
				} else {
					set(perLayer, def.name, 0)
				}
			case "runtime.gc_cpu_frac":
				set(perLayer, def.name, u.rt.gcCPUFrac())
			case "runtime.gc_per_query":
				set(perLayer, def.name, float64(u.rt.gcCycles)/float64(max(len(u.all), 1)))
			case "runtime.heap_peak_mb":
				set(perLayer, def.name, float64(u.rt.heapPeak)/1e6)
			case "trace.overhead_frac":
				set(perLayer, def.name, overhead)
			default:
				set(perLayer, def.name, e.mean(def.name))
			}
		}
	}
	fmt.Fprintf(out, "metric error_rate %.6g ratio (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs one closed-loop region and prints its digest.
func (e *env) measure(m mode, d time.Duration, out io.Writer) loopResult {
	e.next.Store(0)
	e.mu.Lock()
	e.modeled, e.ownB = nil, 0
	e.mu.Unlock()
	w := workloadByName(e.name)
	r := closedLoop(e.clients, d, func(c int) (opResult, error) { return w.op(e, m, c) })
	label := [...]string{"untraced", "profiled facade", "layer-traced"}[m]
	fmt.Fprintf(out, "%s region: %d ops in %.3f s, %d failed, %.2f ops/s\n",
		label, len(r.all), r.wall.Seconds(), r.failed, r.qps())
	fmt.Fprintf(out, "  all ops: %v\n", summarize(r.all))
	classes := make([]string, 0, len(r.byClass))
	for c := range r.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		st := summarize(r.byClass[c])
		fmt.Fprintf(out, "  %s: %v; quartiles %s ms\n", c, st, quartiles(r.byClass[c]))
		if m == modeUntraced && !strings.Contains(c, "+") {
			fmt.Fprintf(out, "metric %s_p50_ms %.6g ms\n", c, st.p50ms)
			fmt.Fprintf(out, "metric %s_tail_ms %.6g ms (p%.2f, n=%d)\n", c, st.tailms, st.tailPct, st.n)
		}
	}
	fmt.Fprintf(out, "  runtime: %.1f MB allocated (%.1f MB by the benchmark's own checks and inputs), %d GC cycles, GC CPU %.2f%%, heap peak %.1f MB\n",
		float64(r.rt.allocBytes)/1e6, float64(e.ownB)/1e6, r.rt.gcCycles, 100*r.rt.gcCPUFrac(), float64(r.rt.heapPeak)/1e6)
	if e.scan != nil {
		fmt.Fprintf(out, "  ingest: %d delta arrays created; the catalog grows by one per op\n", len(r.byClass["ingest"])+len(r.byClass["ingest+trace"]))
	}
	return r
}

// allocPerQuery is the region's allocation per completed op, less the
// calibrated allocations of the benchmark's own output checks and delta
// generation.
func (e *env) allocPerQuery(r loopResult) float64 {
	b := float64(r.rt.allocBytes) - float64(e.ownB)
	return b / float64(max(len(r.all), 1)) / 1e6
}

func floats(v []float64, f string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// quartiles renders the 10th, 25th, 50th, 75th and 90th percentiles of a
// latency sample in milliseconds.
func quartiles(ds []time.Duration) string {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	parts := make([]string, 0, 5)
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		parts = append(parts, fmt.Sprintf("%.2f", float64(s[int(q*float64(len(s)-1))])/1e6))
	}
	return strings.Join(parts, "/")
}
