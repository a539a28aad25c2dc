package aql

import "testing"

// FuzzParse feeds arbitrary text to the AQL parser. Parse must return an
// error rather than panic, and a query it accepts must print (String) to
// text the parser accepts too. The printed text need not be a fixed
// point: predicate orientation is resolved against the FROM list, so an
// ambiguous self-join such as "FROM A, A WHERE x = A.y" can print its
// terms in the other order.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		"SELECT * INTO C<i:int, j:int>[v=1,128M,4M] FROM A, B WHERE A.v = B.w",
		"SELECT A.v1 - B.v1, A.v2 - B.v2 FROM A, B WHERE A.i = B.i AND A.j = B.j",
		"SELECT (Band2.reflectance - Band1.reflectance) / (Band2.reflectance + Band1.reflectance) FROM Band1, Band2 WHERE Band1.x = Band2.x",
		"SELECT * FROM A JOIN B ON B.w = A.v",
		"SELECT A.v AS reading FROM A, B WHERE A.i = B.j",
		"SELECT A.v, B.w INTO T<only:int>[i=1,100,10] FROM A, B WHERE A.v = B.w",
		"SELECT -A.v * (B.w + 2.5) AS x FROM A, B WHERE A.i = B.i",
		"SELECT v AS out INTO T<out:int>[i=1,10,5] FROM A, B WHERE A.i = B.i",
		"SELECT A.v FROM A, B WHERE A.i = B.i AND A.v < 2K",
		"SELECT * FROM A, B WHERE A.i = B.i AND A.flag = 2 AND B.score > 5.0",
		"SELECT * FROM A, B WHERE A.i = B.i AND 10 <= A.v",
		"SELECT i, j INTO T<i:int, j:int>[] FROM a JOIN b ON a.v = b.w",
		"SELECT * FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Parse(q.String()); err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, q.String(), err)
		}
	})
}
