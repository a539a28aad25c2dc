package shuffle

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
)

// mixedArray builds A<v:int, tag:string, f:float>[i=1,n,ci] with every
// coordinate occupied — string attributes included so the differential
// tests cover dictionary encoding — distributed round-robin over k
// nodes.
func mixedArray(t *testing.T, name string, n, ci int64, k int) *cluster.Distributed {
	t.Helper()
	s := array.MustParseSchema(name + "<v:int, tag:string, f:float>[i=1,100,10]")
	s.Dims[0].End, s.Dims[0].ChunkInterval = n, ci
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(n))
	tags := []string{"port", "open-sea", "anchorage"}
	for i := int64(1); i <= n; i++ {
		a.MustPut([]int64{i}, []array.Value{
			array.IntValue(i % 13),
			array.StringValue(tags[rng.Intn(len(tags))]),
			array.FloatValue(rng.Float64()),
		})
	}
	return cluster.Distribute(a, k, cluster.RoundRobin)
}

// streamCases enumerates the mapper shapes the engine actually uses:
// chunk units keyed by a dimension, and hash units keyed by an
// attribute (including a string key).
func streamCases(d *cluster.Distributed) []struct {
	name string
	spec *UnitSpec
	m    *SideMapper
} {
	dimRef := join.Ref{IsDim: true, Index: 0, Name: "i"}
	intRef := join.Ref{IsDim: false, Index: 0, Name: "v"}
	strRef := join.Ref{IsDim: false, Index: 1, Name: "tag"}
	return []struct {
		name string
		spec *UnitSpec
		m    *SideMapper
	}{
		{
			"chunk-units-dim-key",
			&UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{d.Array.Schema.Dims[0]}},
			&SideMapper{KeyRefs: []join.Ref{dimRef}, DimRefs: []join.Ref{dimRef}, CarryAll: true},
		},
		{
			"hash-units-int-key",
			&UnitSpec{Kind: HashUnits, NumUnits: 8},
			&SideMapper{KeyRefs: []join.Ref{intRef}, CarryAll: true},
		},
		{
			"hash-units-string-key",
			&UnitSpec{Kind: HashUnits, NumUnits: 8},
			&SideMapper{KeyRefs: []join.Ref{strRef}, Carry: []int{0, 2}},
		},
		{
			"hash-units-no-carry",
			&UnitSpec{Kind: HashUnits, NumUnits: 4},
			&SideMapper{KeyRefs: []join.Ref{intRef}},
		},
	}
}

// TestMapSideStreamMatchesMapSideN is the slice-mapping differential
// test: for every mapper shape, batch size, and worker count, the
// streamed RunSet reports the same slice statistics as the per-cell
// reference mapper (refSlices, which stands in for the retired
// materializing MapSideN), and its readers decode every
// (unit, destination) pair to the exact tuples the reference assembles
// — same order, same Value kinds, same string contents.
func TestMapSideStreamMatchesMapSideN(t *testing.T) {
	const k = 4
	d := mixedArray(t, "A", 100, 10, k)
	for _, tc := range streamCases(d) {
		for _, rows := range []int{1, 7, 1024} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/rows=%d/workers=%d", tc.name, rows, workers), func(t *testing.T) {
					ref := refSlices(t, d, localOrder(d, k), tc.spec, tc.m)
					rs, err := MapSideStream(d, k, tc.spec, tc.m, workers, StreamConfig{BatchRows: rows})
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstRef(t, rs, ref)
					if rs.TotalCells() != d.Array.CellCount() {
						t.Fatalf("TotalCells = %d, want %d", rs.TotalCells(), d.Array.CellCount())
					}
				})
			}
		}
	}
}

// TestReaderWindowsConcatenate pins the windowed pull path against
// whole-side materialization: the concatenation of Next windows equals
// Materialize.
func TestReaderWindowsConcatenate(t *testing.T) {
	const k = 3
	d := mixedArray(t, "B", 90, 10, k)
	tc := streamCases(d)[0]
	rs, err := MapSideStream(d, k, tc.spec, tc.m, 1, StreamConfig{BatchRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < tc.spec.NumUnits; u++ {
		for dest := 0; dest < k; dest++ {
			whole := rs.Reader(u, dest)
			want := append([]join.Tuple(nil), whole.Materialize()...)
			// Deep-copy: window arenas are reused across Next calls.
			for i := range want {
				want[i].Key = append([]array.Value(nil), want[i].Key...)
				want[i].Coords = append([]int64(nil), want[i].Coords...)
				want[i].Attrs = append([]array.Value(nil), want[i].Attrs...)
			}
			whole.Close()

			rd := rs.Reader(u, dest)
			var got []join.Tuple
			for {
				win, ok := rd.Next()
				if !ok {
					break
				}
				if len(win) > 7 {
					t.Fatalf("window of %d tuples, want <= batch rows 7", len(win))
				}
				for i := range win {
					got = append(got, join.Tuple{
						Key:    append([]array.Value(nil), win[i].Key...),
						Coords: append([]int64(nil), win[i].Coords...),
						Attrs:  append([]array.Value(nil), win[i].Attrs...),
					})
				}
			}
			rd.Close()
			if len(got) != len(want) {
				t.Fatalf("unit %d dest %d: %d windowed tuples, want %d", u, dest, len(got), len(want))
			}
			if len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("unit %d dest %d: windowed tuples differ from Materialize", u, dest)
			}
		}
	}
}

// TestRunSetBudgetLifecycle: every sealed batch is charged, every
// released unit credited; after all units retire the budget reads zero
// and ReleaseUnit is idempotent.
func TestRunSetBudgetLifecycle(t *testing.T) {
	const k = 3
	d := mixedArray(t, "C", 60, 10, k)
	tc := streamCases(d)[1]
	bud := batch.NewBudget(0, false)
	rs, err := MapSideStream(d, k, tc.spec, tc.m, 1, StreamConfig{BatchRows: 4, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if bud.Used() == 0 || bud.Peak() != bud.Used() {
		t.Fatalf("after mapping: Used=%d Peak=%d, want equal and positive", bud.Used(), bud.Peak())
	}
	for u := 0; u < tc.spec.NumUnits; u++ {
		rs.ReleaseUnit(u)
		rs.ReleaseUnit(u) // idempotent
	}
	if bud.Used() != 0 {
		t.Errorf("after releasing every unit: Used = %d, want 0", bud.Used())
	}
}

// TestMapSideStreamStrictBudget: a strict budget fails the map with
// ErrBudget when mapped batches exceed the limit.
func TestMapSideStreamStrictBudget(t *testing.T) {
	const k = 2
	d := mixedArray(t, "D", 40, 10, k)
	tc := streamCases(d)[0]
	bud := batch.NewBudget(64, true) // far below 40 cells × 5 cols × 8B
	_, err := MapSideStream(d, k, tc.spec, tc.m, 1, StreamConfig{BatchRows: 4, Budget: bud})
	if !errors.Is(err, batch.ErrBudget) {
		t.Fatalf("err = %v, want batch.ErrBudget", err)
	}
}
