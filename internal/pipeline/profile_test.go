package pipeline_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
)

func profiledRun(t *testing.T, par int) *pipeline.Report {
	t.Helper()
	a := buildArray("A<v:int>[i=1,300,30]", 31, 160, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 32, 150, 30)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,29,6]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 4, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{
		Logical:     logical.PlanOptions{Selectivity: 0.5},
		Parallelism: par,
		Profile:     true,
		QueryLabel:  "A join B on v=w",
	})
	if err != nil {
		t.Fatalf("par=%d: %v", par, err)
	}
	return rep
}

// TestProfileStageSimsSumToMakespan pins the EXPLAIN ANALYZE accounting
// identity: the per-stage simulated timings sum — exactly, in floating
// point — to the profile's makespan and to the engine's reported
// align+compare modeled times.
func TestProfileStageSimsSumToMakespan(t *testing.T) {
	rep := profiledRun(t, 0)
	p := rep.Profile
	if p == nil {
		t.Fatal("Options.Profile set but Report.Profile is nil")
	}
	var sum float64
	for _, st := range p.Stages {
		sum += st.SimSeconds
	}
	if sum != p.MakespanSeconds {
		t.Errorf("sum of stage SimSeconds = %v, profile makespan = %v", sum, p.MakespanSeconds)
	}
	if want := rep.AlignTime + rep.CompareTime; sum != want {
		t.Errorf("sum of stage SimSeconds = %v, AlignTime+CompareTime = %v (must be bit-identical)", sum, want)
	}
	if len(p.Stages) != 6 {
		t.Errorf("profile has %d stages, want 6: %+v", len(p.Stages), p.Stages)
	}
	if p.Shuffle.MakespanSeconds != rep.AlignTime {
		t.Errorf("shuffle makespan %v != AlignTime %v", p.Shuffle.MakespanSeconds, rep.AlignTime)
	}
	if p.Matches != rep.Matches || p.CellsMoved != rep.CellsMoved {
		t.Errorf("profile totals (%d, %d) disagree with report (%d, %d)",
			p.Matches, p.CellsMoved, rep.Matches, rep.CellsMoved)
	}
	var unitSum, cellSum int64
	for _, n := range p.Nodes {
		unitSum += int64(n.Units)
		cellSum += n.OutputCells
	}
	if int(unitSum) != p.NumUnits {
		t.Errorf("per-node units sum to %d, plan has %d units", unitSum, p.NumUnits)
	}
	if cellSum != p.Matches {
		t.Errorf("per-node output cells sum to %d, want %d matches", cellSum, p.Matches)
	}
	if len(p.Candidates) == 0 {
		t.Error("profile carries no candidate plans")
	}
	chosen := 0
	for _, c := range p.Candidates {
		if c.Chosen {
			chosen++
		}
	}
	if chosen != 1 {
		t.Errorf("%d candidates marked chosen, want exactly 1: %+v", chosen, p.Candidates)
	}
}

// goldenProfile pins the digest (see digest) of profiledRun's query,
// which covers the profile fingerprint (wall-clock fields masked).
const goldenProfile = "3a67ad78cb67fadced4103b0"

// TestProfileDeterministicAcrossParallelism is the acceptance bar: the
// profile (wall-clock fields masked) is bit-identical at Parallelism 1,
// 4, and 0, and matches the pinned digest.
func TestProfileDeterministicAcrossParallelism(t *testing.T) {
	var base string
	for i, par := range []int{1, 4, 0} {
		rep := profiledRun(t, par)
		fp := rep.Profile.Fingerprint()
		checkGolden(t, fmt.Sprintf("par=%d", par), digest(rep, ""), goldenProfile)
		if i == 0 {
			base = fp
			continue
		}
		if fp != base {
			t.Errorf("profile fingerprint at par=%d diverges:\n--- base ---\n%s\n--- got ---\n%s",
				par, base, fp)
		}
	}
}

// TestProfileRenderAndJSON sanity-checks the two export forms: the tree
// renderer mentions every section, and the JSON round-trips through a
// stable encoding.
func TestProfileRenderAndJSON(t *testing.T) {
	rep := profiledRun(t, 0)
	p := rep.Profile
	s := p.String()
	for _, want := range []string{"EXPLAIN ANALYZE", "A join B on v=w", "stages", "shuffle:", "nodes", "candidates", "logical-plan", "align", "compare"} {
		if !strings.Contains(s, want) {
			t.Errorf("profile rendering missing %q:\n%s", want, s)
		}
	}
	var b1, b2 bytes.Buffer
	if err := p.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("profile JSON not stable across renders")
	}
	for _, want := range []string{`"plan_source"`, `"stages"`, `"shuffle"`, `"nodes"`, `"candidates"`, `"makespan_seconds"`} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("profile JSON missing %q", want)
		}
	}
}

// TestProfileCacheOutcome exercises plan-cache provenance in the
// profile: first run misses, second hits, and both record it.
func TestProfileCacheOutcome(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 41, 140, 25)
	b := buildArray("B<w:int>[j=1,300,30]", 42, 130, 25)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,24,5]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 4, a, b)
	cache := plancache.New()
	opts := pipeline.Options{
		Logical: logical.PlanOptions{Selectivity: 0.5},
		Cache:   cache,
		Profile: true,
	}
	rep1, err := pipeline.Run(c, "A", "B", pred, out, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Profile.CacheOutcome != "miss" {
		t.Errorf("first run cache outcome = %q, want miss", rep1.Profile.CacheOutcome)
	}
	rep2, err := pipeline.Run(c, "A", "B", pred, out, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Profile.CacheOutcome != "hit" {
		t.Errorf("second run cache outcome = %q, want hit", rep2.Profile.CacheOutcome)
	}
	if rep2.Profile.PlanSource != pipeline.PlanSourceCached {
		t.Errorf("second run plan source = %q, want %q", rep2.Profile.PlanSource, pipeline.PlanSourceCached)
	}
}
