package pipeline_test

import (
	"errors"
	"fmt"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/pipeline"
)

// goldenStreaming pins the digest (see digest) of each
// TestStreamingMatchesMaterialized run, by algorithm. Every batch size
// and Parallelism setting must reproduce it.
var goldenStreaming = map[string]string{
	"hash":       "cc04737885e68425fabca49e",
	"merge":      "22335f08008a29c6208eb3a0",
	"nestedloop": "0d6b61ef515ab90afc99dde9",
}

// goldenPeak pins the digest of TestStreamingPeakDeterministic's query.
const goldenPeak = "b784f959cd041a690260186a"

// TestStreamingMatchesMaterialized is the data-plane golden test: the
// streaming execution reproduces the materializing reference plane's
// output cells, join statistics, modeled times, and per-node
// diagnostics bit for bit, for every algorithm, batch size, and
// parallelism. The pins were checked against that plane, on every
// field it reported, before it was removed; they also pin the streaming
// run's PeakBatchBytes and trace fingerprint. The barrier= level of the
// subtest names dates from when two compare paths existed; both values
// now run the one compare path.
func TestStreamingMatchesMaterialized(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<i:int, j:int>[v=0,29,6]")

	run := func(t *testing.T, algo join.Algorithm, par, batchSize int) string {
		t.Helper()
		c := newCluster(t, 4, a.Clone(), b.Clone())
		tr := obs.New("streaming")
		rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{
			ForceAlgo:   &algo,
			Logical:     logical.PlanOptions{Selectivity: 0.5},
			Parallelism: par,
			BatchSize:   batchSize,
			Trace:       tr,
		})
		if err != nil {
			t.Fatalf("Run(algo=%v par=%d batch=%d): %v", algo, par, batchSize, err)
		}
		if rep.PeakBatchBytes <= 0 {
			t.Errorf("PeakBatchBytes = %d, want > 0", rep.PeakBatchBytes)
		}
		return digest(rep, tr.Fingerprint())
	}

	for _, algo := range []join.Algorithm{join.Hash, join.Merge, join.NestedLoop} {
		for _, batchSize := range []int{1, 7, 1024} {
			key := fmt.Sprintf("%v/batch=%d", algo, batchSize)
			first := ""
			for _, par := range []int{1, 4, 0} {
				for _, barrier := range []bool{false, true} {
					name := fmt.Sprintf("%s/par=%d/barrier=%v", key, par, barrier)
					t.Run(name, func(t *testing.T) {
						got := run(t, algo, par, batchSize)
						if first == "" {
							first = got
						} else if got != first {
							t.Errorf("digest %s differs from par=1's %s", got, first)
						}
						checkGolden(t, key, got, goldenStreaming[algo.String()])
					})
				}
			}
		}
	}
}

// TestStreamingPeakDeterministic pins the memory gauge itself: the
// reported peak is bit-identical across parallelism (batch charges
// happen at SliceMap, releases strictly after — the peak is the total
// mapped footprint regardless of execution interleaving).
func TestStreamingPeakDeterministic(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 7, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 8, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	var wantPeak int64 = -1
	for _, par := range []int{1, 4, 0} {
		c := newCluster(t, 3, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
			Logical:     logical.PlanOptions{Selectivity: 0.5},
			Parallelism: par,
			BatchSize:   16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if wantPeak < 0 {
			wantPeak = rep.PeakBatchBytes
		}
		if rep.PeakBatchBytes != wantPeak {
			t.Errorf("par=%d: PeakBatchBytes = %d, want %d", par, rep.PeakBatchBytes, wantPeak)
		}
		checkGolden(t, fmt.Sprintf("par=%d", par), digest(rep, ""), goldenPeak)
	}
	if wantPeak <= 0 {
		t.Fatalf("PeakBatchBytes = %d, want > 0", wantPeak)
	}
}

// TestMemoryBudgetCounted: an undersized budget in the default counted
// mode completes the query and reports the overflow, mirroring the
// ClampedCells convention.
func TestMemoryBudgetCounted(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 9, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 10, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 3, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Logical:      logical.PlanOptions{Selectivity: 0.5},
		MemoryBudget: 256,
	})
	if err != nil {
		t.Fatalf("counted overflow must not fail the query: %v", err)
	}
	if rep.MemoryOverflowBytes <= 0 {
		t.Errorf("MemoryOverflowBytes = %d, want > 0", rep.MemoryOverflowBytes)
	}
	if got, want := rep.MemoryOverflowBytes, rep.PeakBatchBytes-256; got != want {
		t.Errorf("MemoryOverflowBytes = %d, want peak-budget = %d", got, want)
	}
	if rep.Matches == 0 {
		t.Error("overflowing query produced no matches; fixture broken")
	}
}

// TestMemoryBudgetStrict: the same undersized budget in strict mode
// fails the query with batch.ErrBudget.
func TestMemoryBudgetStrict(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 9, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 10, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 3, a, b)
	_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Logical:      logical.PlanOptions{Selectivity: 0.5},
		MemoryBudget: 256,
		StrictMemory: true,
	})
	if !errors.Is(err, batch.ErrBudget) {
		t.Fatalf("err = %v, want batch.ErrBudget", err)
	}
}

// TestStreamingFingerprintsPinned: within the streaming plane, trace
// fingerprints (which now cover the memory gauges) stay bit-identical
// across parallelism — the same guarantee the engine makes for every
// other metric.
func TestStreamingFingerprintsPinned(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 11, 100, 20)
	b := buildArray("B<w:int>[j=1,200,20]", 12, 90, 20)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	var want string
	for i, par := range []int{1, 4, 0} {
		c := newCluster(t, 3, a.Clone(), b.Clone())
		tr := obs.New("streaming")
		_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
			Logical:     logical.PlanOptions{Selectivity: 0.5},
			Parallelism: par,
			Trace:       tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("par=%d: fingerprint diverged", par)
		}
	}
}
