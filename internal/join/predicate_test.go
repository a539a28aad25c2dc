package join

import (
	"testing"

	"shufflejoin/internal/array"
)

func schemaAB(t *testing.T) (*array.Schema, *array.Schema) {
	t.Helper()
	return array.MustParseSchema("A<v:int, u:float>[i=1,100,10, j=1,100,10]"),
		array.MustParseSchema("B<w:int>[x=1,100,10]")
}

func TestResolveTerm(t *testing.T) {
	a, _ := schemaAB(t)
	cases := []struct {
		term  Term
		isDim bool
		index int
	}{
		{Term{Name: "i"}, true, 0},
		{Term{Name: "j"}, true, 1},
		{Term{Name: "v"}, false, 0},
		{Term{Array: "A", Name: "u"}, false, 1},
	}
	for _, c := range cases {
		ref, err := Resolve(a, c.term)
		if err != nil {
			t.Fatalf("Resolve(%v): %v", c.term, err)
		}
		if ref.IsDim != c.isDim || ref.Index != c.index {
			t.Errorf("Resolve(%v) = %+v", c.term, ref)
		}
	}
	if _, err := Resolve(a, Term{Name: "missing"}); err == nil {
		t.Error("unknown term should fail")
	}
	if _, err := Resolve(a, Term{Array: "B", Name: "v"}); err == nil {
		t.Error("wrong qualifier should fail")
	}
}

func TestResolvePredicateAndClass(t *testing.T) {
	a, b := schemaAB(t)
	dd := Predicate{{Left: Term{Name: "i"}, Right: Term{Name: "x"}}}
	aa := Predicate{{Left: Term{Name: "v"}, Right: Term{Name: "w"}}}
	ad := Predicate{{Left: Term{Name: "i"}, Right: Term{Name: "w"}}}
	mixed := Predicate{dd[0], aa[0]}

	cases := []struct {
		pred Predicate
		want PredClass
	}{
		{dd, ClassDD},
		{aa, ClassAA},
		{ad, ClassMixed},
		{mixed, ClassMixed},
	}
	for _, c := range cases {
		rp, err := ResolvePredicate(a, b, c.pred)
		if err != nil {
			t.Fatalf("ResolvePredicate(%v): %v", c.pred, err)
		}
		if got := rp.Class(); got != c.want {
			t.Errorf("Class(%v) = %v, want %v", c.pred, got, c.want)
		}
	}
	if _, err := ResolvePredicate(a, b, nil); err == nil {
		t.Error("empty predicate should fail")
	}
	if _, err := ResolvePredicate(a, b, Predicate{{Left: Term{Name: "nope"}, Right: Term{Name: "w"}}}); err == nil {
		t.Error("unresolvable term should fail")
	}
}

func TestPredicateStrings(t *testing.T) {
	p := Predicate{
		{Left: Term{Array: "A", Name: "i"}, Right: Term{Name: "x"}},
		{Left: Term{Name: "v"}, Right: Term{Array: "B", Name: "w"}},
	}
	want := "A.i = x AND v = B.w"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	for _, c := range []PredClass{ClassDD, ClassAA, ClassMixed} {
		if c.String() == "" {
			t.Errorf("empty string for class %d", int(c))
		}
	}
}

func TestKeyOf(t *testing.T) {
	a, b := schemaAB(t)
	rp, err := ResolvePredicate(a, b, Predicate{
		{Left: Term{Name: "i"}, Right: Term{Name: "x"}},
		{Left: Term{Name: "v"}, Right: Term{Name: "w"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	coords := []int64{7, 9}
	attrs := []array.Value{array.IntValue(42), array.FloatValue(1.5)}
	key := KeyOf(rp.Left, coords, attrs)
	if len(key) != 2 || key[0].AsInt() != 7 || key[1].AsInt() != 42 {
		t.Errorf("left key = %v", key)
	}
	rkey := KeyOf(rp.Right, []int64{3}, []array.Value{array.IntValue(5)})
	if len(rkey) != 2 || rkey[0].AsInt() != 3 || rkey[1].AsInt() != 5 {
		t.Errorf("right key = %v", rkey)
	}
}

func TestAlgorithmString(t *testing.T) {
	if Hash.String() != "hash" || Merge.String() != "merge" || NestedLoop.String() != "nestedloop" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm should still print")
	}
}

func TestHashJoinBuildSideAgreesWithHashJoin(t *testing.T) {
	left := intTuples(1, 2, 2, 3, 9)
	right := intTuples(2, 3, 3, 8)
	want := nestedLoopRef(left, right, nil).Matches
	if st, _ := runSlices(Hash, left, right, 0, nil); st.Matches != want {
		t.Fatalf("HashJoinStream matches = %d, want %d", st.Matches, want)
	}
	if got := HashJoinBuildSide(left, right, nil).Matches; got != want {
		t.Errorf("build-left matches = %d, want %d", got, want)
	}
	if got := HashJoinBuildSide(right, left, nil).Matches; got != want {
		t.Errorf("build-right matches = %d, want %d", got, want)
	}
	// Build side is honored exactly.
	st := HashJoinBuildSide(right, left, nil)
	if st.BuildOps != int64(len(right)) || st.ProbeOps != int64(len(left)) {
		t.Errorf("stats = %+v", st)
	}
	var n int
	HashJoinBuildSide(left, right, func(l, r *Tuple) { n++ })
	if int64(n) != want {
		t.Errorf("emitted %d, want %d", n, want)
	}
}
