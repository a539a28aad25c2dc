package aql

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/pipeline"
)

func TestParseFigure5Query(t *testing.T) {
	q, err := Parse("SELECT * INTO C<i:int, j:int>[v=1,128M,4M] FROM A, B WHERE A.v = B.w")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Star {
		t.Error("expected SELECT *")
	}
	if q.Into == nil || q.Into.Name != "C" || q.Into.Dims[0].ChunkInterval != 4000000 {
		t.Errorf("Into = %v", q.Into)
	}
	if q.Left != "A" || q.Right != "B" {
		t.Errorf("FROM = %s, %s", q.Left, q.Right)
	}
	if len(q.Pred) != 1 || q.Pred[0].Left.Name != "v" || q.Pred[0].Right.Name != "w" {
		t.Errorf("Pred = %v", q.Pred)
	}
}

func TestParseMergeJoinQuery(t *testing.T) {
	q, err := Parse(`SELECT A.v1 - B.v1, A.v2 - B.v2
		FROM A, B
		WHERE A.i = B.i AND A.j = B.j;`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 2 {
		t.Fatalf("Select = %v", q.Select)
	}
	if len(q.Pred) != 2 {
		t.Fatalf("Pred = %v", q.Pred)
	}
	b, ok := q.Select[0].Expr.(BinExpr)
	if !ok || b.Op != '-' {
		t.Errorf("Select[0] = %#v", q.Select[0].Expr)
	}
}

func TestParseNDVIQuery(t *testing.T) {
	q, err := Parse(`SELECT (Band2.reflectance - Band1.reflectance)
		/ (Band2.reflectance + Band1.reflectance)
		FROM Band1, Band2
		WHERE Band1.time = Band2.time
		AND Band1.longitude = Band2.longitude
		AND Band1.latitude = Band2.latitude;`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Pred) != 3 {
		t.Errorf("Pred = %v", q.Pred)
	}
	if len(q.Select) != 1 {
		t.Fatalf("Select = %v", q.Select)
	}
	div, ok := q.Select[0].Expr.(BinExpr)
	if !ok || div.Op != '/' {
		t.Errorf("top expr = %#v", q.Select[0].Expr)
	}
}

func TestParsePredicateOrientation(t *testing.T) {
	// Reversed qualifiers must flip so left terms reference the left array.
	q, err := Parse("SELECT * FROM A JOIN B ON B.w = A.v")
	if err != nil {
		t.Fatal(err)
	}
	if q.Pred[0].Left.Array != "A" || q.Pred[0].Right.Array != "B" {
		t.Errorf("Pred = %v", q.Pred)
	}
}

func TestParseAlias(t *testing.T) {
	q, err := Parse("SELECT A.v AS reading FROM A, B WHERE A.i = B.j")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Alias != "reading" || q.Select[0].Name(0) != "reading" {
		t.Errorf("alias = %q", q.Select[0].Alias)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM A, B WHERE A.i = B.i",
		"SELECT * FROM A WHERE A.i = A.j",          // missing second array
		"SELECT * FROM A, B",                       // no predicate
		"SELECT * FROM A, B WHERE A.i < B.i",       // not an equality
		"SELECT * FROM A, B WHERE A.i = B.i junk",  // trailing tokens
		"SELECT * INTO C<v:int> FROM",              // truncated
		"SELECT 'unclosed FROM A, B WHERE A.i=B.i", // bad string
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	q, err := Parse("SELECT A.v1 - B.v1 FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"SELECT", "(A.v1 - B.v1)", "FROM A JOIN B", "A.i = B.i"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestCompileInfersOutputSchema(t *testing.T) {
	left := array.MustParseSchema("A<v1:int, v2:float>[i=1,100,10]")
	right := array.MustParseSchema("B<v1:int, v2:float>[i=1,100,10]")
	q, err := Parse("SELECT A.v1 - B.v1, A.v2 / B.v2 FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Out.Attrs) != 2 {
		t.Fatalf("out attrs = %v", c.Out.Attrs)
	}
	if c.Out.Attrs[0].Type != array.TypeInt64 {
		t.Errorf("int - int should be int, got %v", c.Out.Attrs[0].Type)
	}
	if c.Out.Attrs[1].Type != array.TypeFloat64 {
		t.Errorf("division should be float, got %v", c.Out.Attrs[1].Type)
	}
	if len(c.Out.Dims) == 0 {
		t.Error("D:D default output should keep the dimension space")
	}
	// v1 and v2 are carried on both sides for the expressions.
	if len(c.ExtraCarryLeft) != 2 || len(c.ExtraCarryRight) != 2 {
		t.Errorf("carries = %v / %v", c.ExtraCarryLeft, c.ExtraCarryRight)
	}
}

func TestCompileIntoArityMismatch(t *testing.T) {
	left := array.MustParseSchema("A<v:int>[i=1,100,10]")
	right := array.MustParseSchema("B<w:int>[j=1,100,10]")
	q, err := Parse("SELECT A.v, B.w INTO T<only:int>[i=1,100,10] FROM A, B WHERE A.v = B.w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q, left, right); err == nil {
		t.Error("arity mismatch should fail compilation")
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	left := array.MustParseSchema("A<v:int>[i=1,100,10]")
	right := array.MustParseSchema("B<w:int>[j=1,100,10]")
	q, err := Parse("SELECT A.nope FROM A, B WHERE A.v = B.w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q, left, right); err == nil {
		t.Error("unknown column should fail compilation")
	}
}

// End-to-end: run the paper's D:D expression query on real data and verify
// the computed attribute values.
func TestRunExpressionQuery(t *testing.T) {
	mk := func(name string, seed int64) *array.Array {
		s := array.MustParseSchema(name + "<v1:int, v2:int>[i=1,40,10, j=1,40,10]")
		a := array.MustNew(s)
		rng := rand.New(rand.NewSource(seed))
		for i := int64(1); i <= 40; i++ {
			for j := int64(1); j <= 40; j++ {
				if rng.Intn(3) == 0 {
					continue // sparse
				}
				a.MustPut([]int64{i, j}, []array.Value{
					array.IntValue(rng.Int63n(100)), array.IntValue(rng.Int63n(100))})
			}
		}
		return a
	}
	a, b := mk("A", 1), mk("B", 2)
	c := cluster.MustNew(4)
	c.Load(a, cluster.RoundRobin)
	c.Load(b, cluster.RoundRobin)

	rep, err := Run(c, `SELECT A.v1 - B.v1, A.v2 - B.v2 FROM A, B
		WHERE A.i = B.i AND A.j = B.j;`, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Matches == 0 {
		t.Fatal("no matches")
	}
	checked := 0
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		av, okA := a.Get(coords)
		bv, okB := b.Get(coords)
		if !okA || !okB {
			t.Fatalf("output cell %v has no source", coords)
		}
		if attrs[0].AsInt() != av[0].AsInt()-bv[0].AsInt() {
			t.Fatalf("cell %v: v1 diff = %v, want %v", coords, attrs[0], av[0].AsInt()-bv[0].AsInt())
		}
		checked++
		return checked < 50
	})
	if checked == 0 {
		t.Error("verified no cells")
	}
}

// End-to-end NDVI-style division query with floats.
func TestRunDivisionQuery(t *testing.T) {
	mk := func(name string) *array.Array {
		s := array.MustParseSchema(name + "<reflectance:float>[x=1,20,5]")
		a := array.MustNew(s)
		for x := int64(1); x <= 20; x++ {
			a.MustPut([]int64{x}, []array.Value{array.FloatValue(float64(x) + 0.5)})
		}
		return a
	}
	c := cluster.MustNew(2)
	c.Load(mk("Band1"), cluster.RoundRobin)
	c.Load(mk("Band2"), cluster.RoundRobin)
	rep, err := Run(c, `SELECT (Band2.reflectance - Band1.reflectance)
		/ (Band2.reflectance + Band1.reflectance)
		FROM Band1, Band2 WHERE Band1.x = Band2.x`, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Matches != 20 {
		t.Fatalf("Matches = %d, want 20", rep.Matches)
	}
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if math.Abs(attrs[0].AsFloat()-0) > 1e-12 {
			t.Fatalf("NDVI of identical bands should be 0, got %v at %v", attrs[0], coords)
		}
		return true
	})
}

// SELECT i, j INTO T<i:int,j:int>[] — Figure 2(b) exactly.
func TestRunUnorderedOutput(t *testing.T) {
	mkA := array.MustNew(array.MustParseSchema("a<v:int>[i=1,9,3]"))
	mkB := array.MustNew(array.MustParseSchema("b<w:int>[j=1,9,3]"))
	// Figure 2 input data.
	avals := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	bvals := []int64{2, 3, 5, 6, 7, 9, 10, 11, 12}
	for idx, v := range avals {
		mkA.MustPut([]int64{int64(idx + 1)}, []array.Value{array.IntValue(v)})
	}
	for idx, w := range bvals {
		mkB.MustPut([]int64{int64(idx + 1)}, []array.Value{array.IntValue(w)})
	}
	c := cluster.MustNew(2)
	c.Load(mkA, cluster.RoundRobin)
	c.Load(mkB, cluster.RoundRobin)
	rep, err := Run(c, "SELECT i, j INTO T<i:int, j:int>[] FROM a JOIN b ON a.v = b.w", pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Matching values: 2,3,5,6,7,9 -> 6 matches.
	if rep.Matches != 6 {
		t.Errorf("Matches = %d, want 6", rep.Matches)
	}
}
