package afl

import "testing"

// FuzzParse feeds arbitrary text to the AFL parser. Parse must return an
// error rather than panic, and an expression it accepts must print
// (String) to text that parses again to the same expression.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		"merge(A, redim(B, <v1:int, v2:float>[i=1,6,3, j=1,6,3]))",
		"merge(A, redim(B, <w1:int, w2:float>[i=1,6,3, j=1,6,3]))",
		"filter(A, v1 > 5)",
		"filter(A, i <= 2)",
		"project(sort(A), v1, v2)",
		"project(A, v2)",
		"cross(scan(A), B)",
		"between(A, 2, 1, 4, 2)",
		"apply(A, scaled, v1 * 10)",
		"apply(A, ratio, v2 / v1)",
		"apply(M, diff, reflectance_2 - reflectance)",
		"merge(Band1, Band2)",
		"sort(Missing)",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		s := n.String()
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, s, err)
		}
		if again.String() != s {
			t.Fatalf("Parse(%q) printed %q, which reparses to %q", src, s, again.String())
		}
	})
}
