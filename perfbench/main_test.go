package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes keep every workload to milliseconds per query.
var tinySizes = sizes{
	interactiveCells: 200,
	scanCells:        1200,
	modisCells:       3000,
	aisCells:         4500,
	deltaCells:       100,
	mixLen:           64,
}

func runTiny(t *testing.T, w *workload, trace bool, plant func(*env)) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runBenchmark(runConfig{
		w:     w,
		seed:  3,
		d:     300 * time.Millisecond,
		trace: trace,
		sz:    tinySizes,
		out:   &out,
		plant: plant,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
	}
	return res, out.String()
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, out := runTiny(t, w, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || exitCode(res) != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, d.name, m, d.unit)
				}
			}
			if !strings.Contains(out, "metric error_rate 0 ratio") {
				t.Errorf("%s trace=%v: no error_rate line in\n%s", w.name, trace, out)
			}
			if !trace && !strings.Contains(out, "metric "+w.primary+"_tail_ms") {
				t.Errorf("%s: no %s_tail_ms line in\n%s", w.name, w.primary, out)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the metrics this program emits in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		json []metric
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

func TestPlantedWrongOutputFails(t *testing.T) {
	cases := []struct {
		w     *workload
		trace bool
		plant func(*env)
	}{
		// A wrong expected match count on the interactive template.
		{serveMix, false, func(e *env) { e.tmpls[0].want.matches++ }},
		// A wrong expected value digest, checked on the facade and on the
		// layer-traced path.
		{geoSkew, true, func(e *env) { e.tmpls[0].want.multiset ^= 1 }},
		// Wrong resident values: every delta's expected output is wrong.
		{ingestMix, false, func(e *env) {
			for i := range e.scan.values {
				e.scan.values[i] = []any{int64(-1)}
			}
		}},
	}
	for _, c := range cases {
		res, out := runTiny(t, c.w, c.trace, c.plant)
		if res.Correct || res.Failed == 0 || exitCode(res) == 0 {
			t.Errorf("%s: planted wrong output not reported: correct=%v failed=%d\n%s", c.w.name, res.Correct, res.Failed, out)
		}
		if !strings.Contains(out, "FAILED: ") {
			t.Errorf("%s: no FAILED line in\n%s", c.w.name, out)
		}
	}
}

func TestLayerSelfTimesWithinWall(t *testing.T) {
	for _, w := range workloads {
		e := newEnv(w, 5, tinySizes)
		if _, err := e.setup(w); err != nil {
			t.Fatal(err)
		}
		m, err := newMirror(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range e.tmpls {
			for i := 0; i < 3; i++ {
				rep, qt, err := m.query(tm.query, tm.spec, true)
				if err != nil {
					t.Fatal(err)
				}
				if got := reportOutcome(rep); got != tm.ref {
					t.Errorf("%s: traced %v, untraced %v", tm.name, got, tm.ref)
				}
				self := qt.selfTimes()
				var sum time.Duration
				for name, d := range self {
					if d < 0 {
						t.Errorf("%s: negative self time %v for %s", tm.name, d, name)
					}
					sum += d
				}
				if wall := qt.wall(); sum > wall {
					t.Errorf("%s: self times sum to %v > wall %v", tm.name, sum, wall)
				}
				for _, layer := range []string{"aql.parse", "aql.compile", "pipeline.execute", "logical-plan", "slice-map", "physical-plan", "align", "compare", "assemble"} {
					if _, ok := self[layer]; !ok {
						t.Errorf("%s: no span for %s", tm.name, layer)
					}
				}
			}
		}
	}
}

func TestSelfTimesSubtractCoveredIntervals(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	q := &qtrace{spans: []span{
		{name: "query", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(40)},
		{name: "b", parent: 0, start: at(30), end: at(60)}, // overlaps a
		{name: "c", parent: 1, start: at(35), end: at(50)}, // pokes out of a
	}}
	self := q.selfTimes()
	want := map[string]time.Duration{
		"query": 50 * time.Millisecond, // 10..60 covered
		"a":     25 * time.Millisecond, // 35..40 covered by c
		"b":     30 * time.Millisecond,
		"c":     15 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "serve_mix", "--trace", "2"},
		{"--workload", "serve_mix", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}
