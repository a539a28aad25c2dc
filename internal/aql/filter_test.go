package aql

import (
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/pipeline"
)

func filterCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := cluster.MustNew(3)
	a := array.MustNew(array.MustParseSchema("A<v:int, flag:int>[i=1,100,10]"))
	b := array.MustNew(array.MustParseSchema("B<w:int, score:float>[i=1,100,10]"))
	for i := int64(1); i <= 100; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(i), array.IntValue(i % 4)})
		b.MustPut([]int64{i}, []array.Value{array.IntValue(i), array.FloatValue(float64(i) / 10)})
	}
	a.SortAll()
	b.SortAll()
	c.Load(a, cluster.RoundRobin)
	c.Load(b, cluster.RoundRobin)
	return c
}

func TestParseFilterConjuncts(t *testing.T) {
	q, err := Parse("SELECT * FROM A, B WHERE A.i = B.i AND A.flag = 2 AND B.score > 5.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Pred) != 1 {
		t.Fatalf("Pred = %v", q.Pred)
	}
	if len(q.Filters) != 2 {
		t.Fatalf("Filters = %v", q.Filters)
	}
	if q.Filters[0].Col.Name != "flag" || q.Filters[0].Op != "=" {
		t.Errorf("filter 0 = %v", q.Filters[0])
	}
	if q.Filters[1].Op != ">" || q.Filters[1].Val.AsFloat() != 5.0 {
		t.Errorf("filter 1 = %v", q.Filters[1])
	}
}

func TestParseFlippedFilter(t *testing.T) {
	q, err := Parse("SELECT * FROM A, B WHERE A.i = B.i AND 10 <= A.v")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 1 || q.Filters[0].Op != ">=" || q.Filters[0].Col.Name != "v" {
		t.Errorf("flipped filter = %v", q.Filters)
	}
}

func TestParseFilterErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM A, B WHERE A.v < B.w",  // non-equality join
		"SELECT * FROM A, B WHERE 1 = 2",      // two literals
		"SELECT * FROM A, B WHERE A.v ~ 3",    // bad operator
		"SELECT * FROM A, B WHERE A.flag = 2", // filter only: no join pred
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRunWithFilterPushdown(t *testing.T) {
	c := filterCluster(t)
	// flag = i%4; i in 1..100 with flag=2: i ∈ {2,6,...,98} -> 25 rows.
	rep, err := Run(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND A.flag = 2", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 25 {
		t.Errorf("Matches = %d, want 25", rep.Matches)
	}
}

func TestRunWithBothSideFilters(t *testing.T) {
	c := filterCluster(t)
	// A.flag != 0 keeps 75 rows; B.score > 5.0 keeps i > 50.
	// Intersection: i in 51..100 with i%4 != 0 -> 50 - 13 = 37.
	rep, err := Run(c, `SELECT A.v FROM A, B
		WHERE A.i = B.i AND A.flag != 0 AND B.score > 5.0`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 37 {
		t.Errorf("Matches = %d, want 37", rep.Matches)
	}
}

func TestRunFilterOnDimension(t *testing.T) {
	c := filterCluster(t)
	rep, err := Run(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND A.i <= 10", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 10 {
		t.Errorf("Matches = %d, want 10", rep.Matches)
	}
}

func TestRunFilterUnknownColumn(t *testing.T) {
	c := filterCluster(t)
	if _, err := Run(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND nope = 1", pipeline.Options{}); err == nil {
		t.Error("unknown filter column should error")
	}
	// Ambiguous unqualified column (i exists in both).
	if _, err := Run(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND i = 1", pipeline.Options{}); err == nil {
		t.Error("ambiguous filter column should error")
	}
}

func TestMultiWayWithFilter(t *testing.T) {
	c := threeWayCluster(t)
	// Regions pop > 3000 keeps regions 4,5 (pop 4000, 5000) -> rid 4,0.
	res, err := RunMulti(c, `SELECT * FROM Clicks, Users, Regions
		WHERE Clicks.who = Users.uid AND Users.region = Regions.rid
		AND Regions.pop > 3000`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Users with region ∈ {4, 0}: uid%5 ∈ {4,0} -> 20 users; each has 8
	// clicks -> 160.
	if res.Matches != 160 {
		t.Errorf("Matches = %d, want 160", res.Matches)
	}
}

func TestFilterPreservesPlacement(t *testing.T) {
	c := filterCluster(t)
	dl, _ := c.Catalog.Lookup("A")
	q, err := Parse("SELECT A.v FROM A, B WHERE A.i = B.i AND A.flag = 2")
	if err != nil {
		t.Fatal(err)
	}
	dr, _ := c.Catalog.Lookup("B")
	fl, _, err := pushdownFilters(q, dl, dr)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Validate(c.K); err != nil {
		t.Fatalf("filtered placement invalid: %v", err)
	}
	for key, node := range fl.Placement {
		if dl.Placement[key] != node {
			t.Fatalf("chunk %s moved from node %d to %d", key, dl.Placement[key], node)
		}
	}
}
