package join

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"shufflejoin/internal/array"
)

func intTuples(keys ...int64) []Tuple {
	ts := make([]Tuple, len(keys))
	for i, k := range keys {
		ts[i] = Tuple{Key: []array.Value{array.IntValue(k)}, Attrs: []array.Value{array.IntValue(int64(i))}}
	}
	return ts
}

// nestedLoopRef is the test oracle: it compares every pair of full
// tuples, looping the larger side over the smaller (the left side is
// the inner one on ties), and emits matches as (left, right). That is
// also the emit order HashJoinStream and NestedLoopJoinStream are
// specified to produce.
func nestedLoopRef(left, right []Tuple, emit EmitFunc) Stats {
	var st Stats
	for _, p := range orderedPairs(left, right) {
		st.Comparisons++
		if KeyEqual(p.l, p.r) {
			st.Matches++
			if emit != nil {
				emit(p.l, p.r)
			}
		}
	}
	return st
}

type tuplePair struct{ l, r *Tuple }

// orderedPairs lists every (left, right) pair in nestedLoopRef's order.
func orderedPairs(left, right []Tuple) []tuplePair {
	var out []tuplePair
	if len(right) < len(left) {
		for i := range left {
			for j := range right {
				out = append(out, tuplePair{&left[i], &right[j]})
			}
		}
		return out
	}
	for j := range right {
		for i := range left {
			out = append(out, tuplePair{&left[i], &right[j]})
		}
	}
	return out
}

// runSlices runs alg over in-memory sides through RunStream. The sides
// are copied, since merge join sorts its inputs in place.
func runSlices(alg Algorithm, left, right []Tuple, window int, emit EmitFunc) (Stats, error) {
	return RunStream(alg,
		&SliceStream{Tuples: append([]Tuple(nil), left...), Window: window},
		&SliceStream{Tuples: append([]Tuple(nil), right...), Window: window},
		emit)
}

// pair is a match rendered as (left key, right key) for comparison.
type pair struct{ l, r int64 }

func collect(t *testing.T, alg Algorithm, left, right []Tuple) ([]pair, Stats) {
	t.Helper()
	var out []pair
	st, err := runSlices(alg, left, right, 0, func(l, r *Tuple) {
		out = append(out, pair{l.Key[0].AsInt(), r.Key[0].AsInt()})
	})
	if err != nil {
		t.Fatalf("RunStream(%v): %v", alg, err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].l != out[j].l {
			return out[i].l < out[j].l
		}
		return out[i].r < out[j].r
	})
	return out, st
}

func TestAllAlgorithmsAgreeSimple(t *testing.T) {
	left := intTuples(1, 2, 3, 5, 7)
	right := intTuples(2, 3, 4, 7, 8)
	want := []pair{{2, 2}, {3, 3}, {7, 7}}
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		got, st := collect(t, alg, left, right)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: matches = %v, want %v", alg, got, want)
		}
		if st.Matches != 3 {
			t.Errorf("%v: Matches = %d, want 3", alg, st.Matches)
		}
	}
}

func TestDuplicateKeysCrossProduct(t *testing.T) {
	left := intTuples(2, 2, 3)
	right := intTuples(2, 2, 2)
	// key 2: 2 x 3 = 6 matches.
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		got, _ := collect(t, alg, left, right)
		if len(got) != 6 {
			t.Errorf("%v: %d matches, want 6", alg, len(got))
		}
	}
}

func TestEmptySides(t *testing.T) {
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		got, st := collect(t, alg, nil, intTuples(1, 2))
		if len(got) != 0 || st.Matches != 0 {
			t.Errorf("%v: empty left produced matches", alg)
		}
		got, _ = collect(t, alg, intTuples(1, 2), nil)
		if len(got) != 0 {
			t.Errorf("%v: empty right produced matches", alg)
		}
	}
}

func TestMergeRequiresSorted(t *testing.T) {
	left := intTuples(3, 1)
	right := intTuples(1, 3)
	if _, err := MergeJoin(left, right, nil); err == nil {
		t.Error("MergeJoin accepted unsorted input")
	}
}

func TestHashBuildsSmallerSide(t *testing.T) {
	small := intTuples(1, 2)
	large := intTuples(1, 2, 3, 4, 5, 6)
	st, _ := runSlices(Hash, large, small, 0, nil)
	if st.BuildOps != 2 {
		t.Errorf("BuildOps = %d, want 2 (build on smaller side)", st.BuildOps)
	}
	if st.ProbeOps != 6 {
		t.Errorf("ProbeOps = %d, want 6", st.ProbeOps)
	}
	st, _ = runSlices(Hash, small, large, 0, nil)
	if st.BuildOps != 2 || st.ProbeOps != 6 {
		t.Errorf("side order changed build choice: %+v", st)
	}
}

func TestHashEmitPreservesSideOrientation(t *testing.T) {
	// Left tuples have attrs marking them; whichever side builds, emit(l, r)
	// must receive the left array's tuple first.
	left := []Tuple{{Key: []array.Value{array.IntValue(1)}, Attrs: []array.Value{array.StringValue("L")}}}
	right := []Tuple{
		{Key: []array.Value{array.IntValue(1)}, Attrs: []array.Value{array.StringValue("R")}},
		{Key: []array.Value{array.IntValue(9)}, Attrs: []array.Value{array.StringValue("R")}},
	}
	check := func(l, r *Tuple) {
		if l.Attrs[0].Str != "L" || r.Attrs[0].Str != "R" {
			t.Errorf("emit orientation wrong: l=%v r=%v", l.Attrs[0], r.Attrs[0])
		}
	}
	runSlices(Hash, left, right, 0, check)              // builds left (smaller)
	runSlices(Hash, right, left, 0, func(l, r *Tuple) { // left arg is the 2-tuple side
		if l.Attrs[0].Str != "R" || r.Attrs[0].Str != "L" {
			t.Errorf("swapped emit orientation wrong: l=%v r=%v", l.Attrs[0], r.Attrs[0])
		}
	})
	runSlices(NestedLoop, left, right, 0, check)
}

func TestMultiColumnKeys(t *testing.T) {
	mk := func(a, b int64) Tuple {
		return Tuple{Key: []array.Value{array.IntValue(a), array.IntValue(b)}}
	}
	left := []Tuple{mk(1, 1), mk(1, 2), mk(2, 1)}
	right := []Tuple{mk(1, 2), mk(2, 2)}
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		var n int
		if _, err := runSlices(alg, left, right, 0, func(l, r *Tuple) { n++ }); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if n != 1 {
			t.Errorf("%v: %d matches, want 1 (only (1,2))", alg, n)
		}
	}
}

func TestCrossKindNumericKeys(t *testing.T) {
	left := []Tuple{{Key: []array.Value{array.IntValue(3)}}}
	right := []Tuple{{Key: []array.Value{array.FloatValue(3.0)}}}
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		var n int
		if _, err := runSlices(alg, left, right, 0, func(l, r *Tuple) { n++ }); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if n != 1 {
			t.Errorf("%v: int 3 should join float 3.0", alg)
		}
	}
}

// Property test: every algorithm agrees with the nested-loop oracle on
// random inputs.
func TestAlgorithmsEquivalentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func(n int) []Tuple {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = rng.Int63n(20) // small domain forces collisions
			}
			return intTuples(keys...)
		}
		left, right := gen(rng.Intn(60)), gen(rng.Intn(60))
		count := func(alg Algorithm) int64 {
			st, err := runSlices(alg, left, right, rng.Intn(8), nil)
			if err != nil {
				return -1
			}
			return st.Matches
		}
		ref := nestedLoopRef(left, right, nil).Matches
		return count(Hash) == ref && count(Merge) == ref && count(NestedLoop) == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSortTuplesProperty(t *testing.T) {
	f := func(keys []int16) bool {
		ts := make([]Tuple, len(keys))
		for i, k := range keys {
			ts[i] = Tuple{Key: []array.Value{array.IntValue(int64(k))}}
		}
		SortTuples(ts)
		return TuplesSorted(ts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{BuildOps: 1, ProbeOps: 2, MergeSteps: 3, Comparisons: 4, Matches: 5}
	b := Stats{BuildOps: 10, ProbeOps: 20, MergeSteps: 30, Comparisons: 40, Matches: 50}
	a.Add(b)
	if a != (Stats{11, 22, 33, 44, 55}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := runSlices(Algorithm(99), nil, nil, 0, nil); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestNestedLoopQuadraticWork(t *testing.T) {
	left := intTuples(1, 2, 3, 4)
	right := intTuples(5, 6, 7)
	st, _ := runSlices(NestedLoop, left, right, 1, nil)
	if st.Comparisons != 12 {
		t.Errorf("Comparisons = %d, want 12", st.Comparisons)
	}
}

func TestMergeStepsLinear(t *testing.T) {
	left := intTuples(1, 3, 5, 7, 9)
	right := intTuples(2, 4, 6, 8, 10)
	st, err := MergeJoin(left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.MergeSteps > int64(len(left)+len(right)) {
		t.Errorf("MergeSteps = %d, exceeds linear bound %d", st.MergeSteps, len(left)+len(right))
	}
}
