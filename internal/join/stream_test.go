package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
)

// streamTuples builds a random tuple side with duplicate keys (so hash
// buckets chain and merge runs span) and stable coords/attrs payloads.
func streamTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{
			Key:    []array.Value{array.IntValue(rng.Int63n(int64(n/4 + 1)))},
			Coords: []int64{int64(i)},
			Attrs:  []array.Value{array.FloatValue(rng.Float64())},
		}
	}
	return ts
}

// emitRecord captures one emitted pair by value, since streamed windows
// are only valid until the next pull.
type emitRecord struct {
	l, r Tuple
}

func record(out *[]emitRecord) EmitFunc {
	return func(l, r *Tuple) {
		cp := func(t *Tuple) Tuple {
			return Tuple{
				Key:    append([]array.Value(nil), t.Key...),
				Coords: append([]int64(nil), t.Coords...),
				Attrs:  append([]array.Value(nil), t.Attrs...),
			}
		}
		*out = append(*out, emitRecord{cp(l), cp(r)})
	}
}

func copyTuples(ts []Tuple) []Tuple { return append([]Tuple(nil), ts...) }

// refRun is the reference each algorithm's streamed run must reproduce
// bit for bit — emit sequence and statistics. Hash and nested loop emit
// in the nested-loop oracle's order; their work counters follow from
// the side sizes (and, for hash, from full-hash equality). Merge is
// MergeJoin over sorted copies, exactly the preprocessing the engine
// applies to reassembled units.
func refRun(t *testing.T, alg Algorithm, left, right []Tuple, emit EmitFunc) Stats {
	t.Helper()
	switch alg {
	case Merge:
		l, r := copyTuples(left), copyTuples(right)
		SortTuples(l)
		SortTuples(r)
		st, err := MergeJoin(l, r, emit)
		if err != nil {
			t.Fatal(err)
		}
		return st
	case Hash:
		st := nestedLoopRef(left, right, emit)
		small, large := len(left), len(right)
		if large < small {
			small, large = large, small
		}
		st.BuildOps, st.ProbeOps = int64(small), int64(large)
		st.Comparisons = 0
		for _, p := range orderedPairs(left, right) {
			if keyHash(p.l) == keyHash(p.r) {
				st.Comparisons++
			}
		}
		return st
	default:
		return nestedLoopRef(left, right, emit)
	}
}

// TestRunStreamMatchesRun is the algorithm-level reference test: for
// every algorithm, side-size ordering, and window size, the streamed
// run's emit order and statistics are bit-identical to refRun's.
func TestRunStreamMatchesRun(t *testing.T) {
	sides := []struct {
		name   string
		nl, nr int
	}{
		{"left-smaller", 60, 90},
		{"right-smaller", 90, 60},
		{"equal", 75, 75},
		{"empty-right", 40, 0},
	}
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		for _, sz := range sides {
			for _, window := range []int{1, 3, 1000} {
				name := fmt.Sprintf("%v/%s/window=%d", alg, sz.name, window)
				t.Run(name, func(t *testing.T) {
					left := streamTuples(sz.nl, int64(sz.nl)+1)
					right := streamTuples(sz.nr, int64(sz.nr)+2)

					var wantEmits []emitRecord
					wantStats := refRun(t, alg, left, right, record(&wantEmits))

					var gotEmits []emitRecord
					gotStats, err := RunStream(alg,
						&SliceStream{Tuples: copyTuples(left), Window: window},
						&SliceStream{Tuples: copyTuples(right), Window: window},
						record(&gotEmits))
					if err != nil {
						t.Fatal(err)
					}

					if gotStats != wantStats {
						t.Errorf("Stats = %+v, want %+v", gotStats, wantStats)
					}
					if !reflect.DeepEqual(gotEmits, wantEmits) {
						t.Errorf("emit sequence differs (%d vs %d emits)", len(gotEmits), len(wantEmits))
					}
				})
			}
		}
	}
}

// TestSliceStreamWindows pins the test adapter itself: windows partition
// the slice in order.
func TestSliceStreamWindows(t *testing.T) {
	ts := streamTuples(10, 1)
	s := &SliceStream{Tuples: ts, Window: 4}
	var got []Tuple
	for {
		w, ok := s.Next()
		if !ok {
			break
		}
		if len(w) > 4 {
			t.Fatalf("window of %d tuples, want <= 4", len(w))
		}
		got = append(got, w...)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Error("windows do not reassemble the slice")
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d, want 10", s.Len())
	}
}
