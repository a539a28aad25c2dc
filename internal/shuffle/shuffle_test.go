package shuffle

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
)

// lineArray builds A<v:int>[i=1,n,ci] with cells at every coordinate,
// v = i % 17, distributed round-robin over k nodes.
func lineArray(t *testing.T, name string, n, ci int64, k int) *cluster.Distributed {
	t.Helper()
	s := array.MustParseSchema(name + "<v:int>[i=1,100,10]")
	s.Dims[0].End, s.Dims[0].ChunkInterval = n, ci
	a := array.MustNew(s)
	for i := int64(1); i <= n; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(i % 17)})
	}
	return cluster.Distribute(a, k, cluster.RoundRobin)
}

func dimMapper(s *array.Schema) *SideMapper {
	ref := join.Ref{IsDim: true, Index: 0, Name: s.Dims[0].Name}
	return &SideMapper{KeyRefs: []join.Ref{ref}, DimRefs: []join.Ref{ref}, CarryAll: true}
}

// mapStream maps one side sequentially with the default batch size.
func mapStream(t *testing.T, d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper) *RunSet {
	t.Helper()
	rs, err := MapSideStream(d, k, spec, m, 1, StreamConfig{})
	if err != nil {
		t.Fatalf("MapSideStream: %v", err)
	}
	return rs
}

// streamSlices decodes every (unit, node) slice of a RunSet into owned
// tuples: slices[u][node] holds the slice in map order, nil when empty.
// A reader assembled at node 0 visits the nodes in ascending order, so
// its tuples split into slices by the per-node counts.
func streamSlices(rs *RunSet) [][][]join.Tuple {
	out := make([][][]join.Tuple, rs.Spec.NumUnits)
	for u := range out {
		out[u] = make([][]join.Tuple, rs.Nodes)
		rd := rs.Reader(u, 0)
		ts := rd.Materialize()
		for node := 0; node < rs.Nodes; node++ {
			n := int(rs.Count(u, node))
			for _, tup := range ts[:n] {
				out[u][node] = append(out[u][node], join.Tuple{
					Key:    append([]array.Value(nil), tup.Key...),
					Coords: append([]int64(nil), tup.Coords...),
					Attrs:  append([]array.Value(nil), tup.Attrs...),
				})
			}
			ts = ts[n:]
		}
		rd.Close()
	}
	return out
}

func TestChunkUnitsPartitionCells(t *testing.T) {
	d := lineArray(t, "A", 100, 10, 4)
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 100, ChunkInterval: 10}}}
	ss := mapStream(t, d, 4, spec, dimMapper(d.Array.Schema))
	if spec.NumUnits != 10 {
		t.Fatalf("NumUnits = %d, want 10", spec.NumUnits)
	}
	if got := ss.TotalCells(); got != 100 {
		t.Errorf("TotalCells = %d, want 100", got)
	}
	for u := 0; u < spec.NumUnits; u++ {
		if got := ss.UnitTotal(u); got != 10 {
			t.Errorf("unit %d holds %d cells, want 10", u, got)
		}
	}
}

func TestChunkUnitsRespectJoinSpace(t *testing.T) {
	// Every cell of unit u must have its join coordinate inside chunk u.
	d := lineArray(t, "A", 60, 10, 3)
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 60, ChunkInterval: 10}}}
	slices := streamSlices(mapStream(t, d, 3, spec, dimMapper(d.Array.Schema)))
	for u := 0; u < spec.NumUnits; u++ {
		for node := 0; node < 3; node++ {
			for _, tup := range slices[u][node] {
				i := tup.Coords[0]
				if got := int((i - 1) / 10); got != u {
					t.Fatalf("cell i=%d in unit %d, want %d", i, u, got)
				}
			}
		}
	}
}

func TestHashUnitsConsistentAcrossSides(t *testing.T) {
	// Two arrays with matching attribute values must land matching cells in
	// the same bucket, whichever array they came from.
	dA := lineArray(t, "A", 200, 20, 4)
	dB := lineArray(t, "B", 150, 30, 4)
	spec := &UnitSpec{Kind: HashUnits, NumUnits: 16}
	attrRef := join.Ref{IsDim: false, Index: 0, Name: "v"}
	m := &SideMapper{KeyRefs: []join.Ref{attrRef}, CarryAll: true}
	ssA := streamSlices(mapStream(t, dA, 4, spec, m))
	ssB := streamSlices(mapStream(t, dB, 4, spec, m))
	unitOfKey := func(slices [][][]join.Tuple) map[int64]int {
		res := make(map[int64]int)
		for u := 0; u < spec.NumUnits; u++ {
			for node := 0; node < 4; node++ {
				for _, tup := range slices[u][node] {
					res[tup.Key[0].AsInt()] = u
				}
			}
		}
		return res
	}
	ua, ub := unitOfKey(ssA), unitOfKey(ssB)
	for k, u := range ua {
		if u2, ok := ub[k]; ok && u2 != u {
			t.Fatalf("key %d in unit %d on A but %d on B", k, u, u2)
		}
	}
}

func TestSizesMatchPlacement(t *testing.T) {
	d := lineArray(t, "A", 100, 10, 4)
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 100, ChunkInterval: 10}}}
	sizes := mapStream(t, d, 4, spec, dimMapper(d.Array.Schema)).Sizes()
	// With matching chunking, unit u's cells all live where chunk u lives.
	for u := 0; u < 10; u++ {
		owner := d.Placement[array.MakeChunkKey([]int64{int64(u)})]
		for node := 0; node < 4; node++ {
			want := int64(0)
			if node == owner {
				want = 10
			}
			if sizes[u][node] != want {
				t.Errorf("sizes[%d][%d] = %d, want %d", u, node, sizes[u][node], want)
			}
		}
	}
}

func TestAssembleGathersAllSlices(t *testing.T) {
	d := lineArray(t, "A", 100, 5, 4) // chunks smaller than join chunks: slices split
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 100, ChunkInterval: 20}}}
	rs := mapStream(t, d, 4, spec, dimMapper(d.Array.Schema))
	for u := 0; u < spec.NumUnits; u++ {
		rd := rs.Reader(u, 0)
		if got := len(rd.Materialize()); int64(got) != rs.UnitTotal(u) || rd.Len() != got {
			t.Errorf("unit %d: assembled %d cells (Len %d), total %d", u, got, rd.Len(), rs.UnitTotal(u))
		}
		rd.Close()
	}
}

func TestCarrySubsetOfAttributes(t *testing.T) {
	s := array.MustParseSchema("A<v1:int, v2:float, v3:string>[i=1,10,5]")
	a := array.MustNew(s)
	for i := int64(1); i <= 10; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(i), array.FloatValue(float64(i)), array.StringValue("x")})
	}
	d := cluster.Distribute(a, 2, cluster.RoundRobin)
	spec := &UnitSpec{Kind: HashUnits, NumUnits: 4}
	m := &SideMapper{
		KeyRefs: []join.Ref{{IsDim: false, Index: 0, Name: "v1"}},
		Carry:   []int{1}, // only v2 travels
	}
	slices := streamSlices(mapStream(t, d, 2, spec, m))
	for u := 0; u < 4; u++ {
		for node := 0; node < 2; node++ {
			for _, tup := range slices[u][node] {
				if len(tup.Attrs) != 1 || tup.Attrs[0].Kind != array.TypeFloat64 {
					t.Fatalf("tuple carries %v, want only v2", tup.Attrs)
				}
			}
		}
	}
}

func TestUnitSpecValidate(t *testing.T) {
	bad := []UnitSpec{
		{Kind: HashUnits, NumUnits: 0},
		{Kind: ChunkUnits},
		{Kind: UnitKind(7), NumUnits: 4},
		{Kind: ChunkUnits, NumUnits: 5, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 100, ChunkInterval: 10}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("spec %d should fail validation: %+v", i, bad[i])
		}
	}
	good := UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 100, ChunkInterval: 10}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	if good.NumUnits != 10 {
		t.Errorf("Validate should infer NumUnits, got %d", good.NumUnits)
	}
}

func TestMapSideMapperSpecMismatch(t *testing.T) {
	d := lineArray(t, "A", 10, 5, 2)
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 10, ChunkInterval: 5}}}
	m := &SideMapper{KeyRefs: []join.Ref{{IsDim: true}}} // no DimRefs
	if _, err := MapSideStream(d, 2, spec, m, 1, StreamConfig{}); err == nil {
		t.Error("mismatched mapper should fail")
	}
}

// Property: mapping never loses or duplicates cells, for random arrays and
// both unit kinds.
func TestMapSideConservesCells(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(200) + 10)
		s := array.MustParseSchema("A<v:int>[i=1,1000,100]")
		a := array.MustNew(s)
		for c := int64(0); c < n; c++ {
			a.MustPut([]int64{rng.Int63n(1000) + 1}, []array.Value{array.IntValue(rng.Int63n(50))})
		}
		k := rng.Intn(5) + 1
		d := cluster.Distribute(a, k, cluster.RoundRobin)
		ref := join.Ref{IsDim: false, Index: 0, Name: "v"}
		hashSpec := &UnitSpec{Kind: HashUnits, NumUnits: rng.Intn(30) + 1}
		ss, err := MapSideStream(d, k, hashSpec, &SideMapper{KeyRefs: []join.Ref{ref}}, 1, StreamConfig{})
		if err != nil || ss.TotalCells() != n {
			return false
		}
		dimRef := join.Ref{IsDim: true, Index: 0, Name: "i"}
		chunkSpec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 1000, ChunkInterval: int64(rng.Intn(400) + 1)}}}
		ss2, err := MapSideStream(d, k, chunkSpec, &SideMapper{KeyRefs: []join.Ref{dimRef}, DimRefs: []join.Ref{dimRef}}, 1, StreamConfig{})
		return err == nil && ss2.TotalCells() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the parallel slice mapper partitions every cell exactly once
// and builds slices identical to the sequential mapper's — same tuples in
// the same (unit, node) slots in the same order — at any worker count,
// any batch size, and for both unit kinds.
func TestMapSideNMatchesSequential(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(300) + 20)
		s := array.MustParseSchema("A<v:int>[i=1,1000,50]")
		a := array.MustNew(s)
		for c := int64(0); c < n; c++ {
			a.MustPut([]int64{rng.Int63n(1000) + 1}, []array.Value{array.IntValue(rng.Int63n(50))})
		}
		a.SortAll()
		k := rng.Intn(6) + 1
		d := cluster.Distribute(a, k, cluster.RoundRobin)
		w := int(workers%8) + 1
		ref := join.Ref{IsDim: false, Index: 0, Name: "v"}
		dimRef := join.Ref{IsDim: true, Index: 0, Name: "i"}
		specs := []*UnitSpec{
			{Kind: HashUnits, NumUnits: rng.Intn(30) + 1},
			{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 1000, ChunkInterval: int64(rng.Intn(400) + 1)}}},
		}
		mappers := []*SideMapper{
			{KeyRefs: []join.Ref{ref}, CarryAll: true},
			{KeyRefs: []join.Ref{dimRef}, DimRefs: []join.Ref{dimRef}},
		}
		for i, spec := range specs {
			seq, err := MapSideStream(d, k, spec, mappers[i], 1, StreamConfig{})
			if err != nil {
				return false
			}
			par, err := MapSideStream(d, k, spec, mappers[i], w, StreamConfig{BatchRows: rng.Intn(16) + 1})
			if err != nil {
				return false
			}
			if par.TotalCells() != a.CellCount() || !reflect.DeepEqual(streamSlices(seq), streamSlices(par)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Mapping an attribute into join space (A:A style): join dims derive from
// attribute values.
func TestChunkUnitsFromAttribute(t *testing.T) {
	d := lineArray(t, "A", 100, 10, 2)
	attrRef := join.Ref{IsDim: false, Index: 0, Name: "v"}
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "v", Start: 0, End: 16, ChunkInterval: 4}}}
	slices := streamSlices(mapStream(t, d, 2, spec, &SideMapper{KeyRefs: []join.Ref{attrRef}, DimRefs: []join.Ref{attrRef}}))
	// v = i % 17 in 0..16 -> 5 units (ceil(17/4)).
	if spec.NumUnits != 5 {
		t.Fatalf("NumUnits = %d, want 5", spec.NumUnits)
	}
	for u := 0; u < spec.NumUnits; u++ {
		for node := 0; node < 2; node++ {
			for _, tup := range slices[u][node] {
				v := tup.Key[0].AsInt()
				if int(v/4) != u {
					t.Fatalf("v=%d in unit %d, want %d", v, u, v/4)
				}
			}
		}
	}
}
