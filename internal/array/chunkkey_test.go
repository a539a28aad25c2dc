package array

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// oracleMakeChunkKey is the original fmt-based key encoder, kept here as
// the byte-identity oracle: storage files, HashChunks placement, and
// data fingerprints all depend on the exact key bytes.
func oracleMakeChunkKey(idx []int64) ChunkKey {
	var b strings.Builder
	for i, v := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return ChunkKey(b.String())
}

// oracleIndices is the original fmt-based key decoder.
func oracleIndices(k ChunkKey) []int64 {
	if k == "" {
		return nil
	}
	parts := strings.Split(string(k), ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		var v int64
		fmt.Sscanf(p, "%d", &v)
		out[i] = v
	}
	return out
}

// randomIndex draws a chunk index from a mix of magnitudes: zero, one
// digit, multi-digit, and up to the ~4.4e12 chunks of the synthetic row
// dimension, plus the int64 extremes.
func randomIndex(rng *rand.Rand) int64 {
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(10)
	case 2:
		return rng.Int63n(100_000)
	case 3:
		return rng.Int63n(4_400_000_000_000)
	case 4:
		return -rng.Int63n(1000)
	case 5:
		return [...]int64{math.MaxInt64, math.MinInt64, 4_398_046_511_104}[rng.Intn(3)]
	default:
		return rng.Int63()
	}
}

func TestChunkKeyBytesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		idx := make([]int64, 1+rng.Intn(4))
		for i := range idx {
			idx[i] = randomIndex(rng)
		}
		want := oracleMakeChunkKey(idx)
		if got := MakeChunkKey(idx); got != want {
			t.Fatalf("MakeChunkKey(%v) = %q, oracle %q", idx, got, want)
		}
		if got := appendChunkKey([]byte("x"), idx); string(got) != "x"+string(want) {
			t.Fatalf("appendChunkKey(%v) = %q, want prefix kept", idx, got)
		}
		if got := want.Indices(); !reflect.DeepEqual(got, idx) {
			t.Fatalf("%q.Indices() = %v, want %v", want, got, idx)
		}
		if got, o := want.Indices(), oracleIndices(want); !reflect.DeepEqual(got, o) {
			t.Fatalf("%q.Indices() = %v, oracle %v", want, got, o)
		}
	}
}

func TestChunkKeyOfMatchesOracle(t *testing.T) {
	s := MustParseSchema("R<v:int>[row_=0,4611686018427387903,1048576, i=1,1000000,7, j=-50,50,3]")
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 2000; n++ {
		coords := []int64{
			rng.Int63n(s.Dims[0].End + 1),
			1 + rng.Int63n(1_000_000),
			-50 + rng.Int63n(101),
		}
		idx := make([]int64, len(coords))
		for i, d := range s.Dims {
			idx[i] = d.ChunkIndex(coords[i])
		}
		if got, want := ChunkKeyOf(s, coords), oracleMakeChunkKey(idx); got != want {
			t.Fatalf("ChunkKeyOf(%v) = %q, oracle %q", coords, got, want)
		}
	}
}

// bruteSortedKeys orders keys by selection sort over the oracle's
// decoded indices: the C-order reference SortedKeys must reproduce.
func bruteSortedKeys(a *Array) []ChunkKey {
	keys := make([]ChunkKey, 0, len(a.Chunks))
	idx := make(map[ChunkKey][]int64, len(a.Chunks))
	for k := range a.Chunks {
		keys = append(keys, k)
		idx[k] = oracleIndices(k)
	}
	for i := range keys {
		first := i
		for j := i + 1; j < len(keys); j++ {
			if CompareCoords(idx[keys[j]], idx[keys[first]]) < 0 {
				first = j
			}
		}
		keys[i], keys[first] = keys[first], keys[i]
	}
	return keys
}

func TestSortedKeysNumericOrder(t *testing.T) {
	a := MustNew(MustParseSchema("G<v:int>[x=0,199,10, y=0,199,10]"))
	a.MustPut([]int64{105, 25}, []Value{IntValue(1)}) // chunk 10,2
	a.MustPut([]int64{95, 55}, []Value{IntValue(2)})  // chunk 9,5
	a.MustPut([]int64{5, 199}, []Value{IntValue(3)})  // chunk 0,19
	got := a.SortedKeys()
	want := []ChunkKey{"0,19", "9,5", "10,2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v (numeric, not lexicographic)", got, want)
	}
}

func TestSortedKeysMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// A geo-shaped grid (90×45 lon/lat chunks, one time chunk) sparsely
	// populated, plus the projection's synthetic row dimension, whose
	// ~4.4e12 chunk indices span every digit count.
	for _, lit := range []string{
		"Geo<v:int>[time=1,64,64, lon=1,3600,40, lat=1,1800,40]",
		"Wide<v:int>[row_=0,4611686018427387903,1048576, c=1,200,3]",
	} {
		s := MustParseSchema(lit)
		a := MustNew(s)
		for n := 0; n < 1500; n++ {
			coords := make([]int64, len(s.Dims))
			for i, d := range s.Dims {
				coords[i] = d.Start + rng.Int63n(d.End-d.Start+1)
			}
			a.MustPut(coords, []Value{IntValue(int64(n))})
		}
		if got, want := a.SortedKeys(), bruteSortedKeys(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SortedKeys disagrees with brute-force C-order sort", s.Name)
		}
	}
}

// reserve grows every coordinate and attribute column of ch to hold n
// more cells without reallocating, so an allocation count measures the
// chunk lookup alone.
func reserve(ch *Chunk, n int) {
	for d := range ch.Coords {
		ch.Coords[d] = append(make([]int64, 0, len(ch.Coords[d])+n), ch.Coords[d]...)
	}
	for i := range ch.Cols {
		c := &ch.Cols[i]
		c.Ints = append(make([]int64, 0, len(c.Ints)+n), c.Ints...)
		c.Fs = append(make([]float64, 0, len(c.Fs)+n), c.Fs...)
	}
}

func TestPutGetExistingChunkAllocFree(t *testing.T) {
	a := MustNew(MustParseSchema("Geo<id:int, speed:float>[time=1,64,64, lon=1,3600,40, lat=1,1800,40]"))
	at := []int64{7, 1234, 567}
	attrs := []Value{IntValue(42), FloatValue(1.5)}
	a.MustPut(at, attrs)
	ch := a.Chunks[ChunkKeyOf(a.Schema, at)]
	const runs = 200
	reserve(ch, 2*runs)

	put := []int64{8, 1235, 568} // same chunk, later in C-order
	if n := testing.AllocsPerRun(runs, func() { a.MustPut(put, attrs) }); n != 0 {
		t.Errorf("Put into an existing chunk allocates %v per call, want 0", n)
	}
	if !ch.Sorted {
		t.Error("appending in C-order cleared Sorted")
	}
	empty := []int64{9, 1236, 569} // same chunk, never written
	if n := testing.AllocsPerRun(runs, func() {
		if _, ok := a.Get(empty); ok {
			t.Fatal("Get found an unwritten cell")
		}
	}); n != 0 {
		t.Errorf("Get miss in an existing chunk allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if got, ok := a.Get(at); !ok || got[0].Int != 42 {
			t.Fatal("Get lost the stored cell")
		}
	}); n != 1 {
		t.Errorf("Get hit allocates %v per call, want 1 (the returned attributes)", n)
	}
}

func TestAppendCellTracksSortedness(t *testing.T) {
	ch := NewChunk("0,0", 2, []ScalarType{TypeInt64})
	for _, c := range [][]int64{{1, 1}, {1, 2}, {2, 0}, {2, 0}} {
		ch.AppendCell(c, nil)
	}
	if !ch.Sorted {
		t.Fatal("C-order appends (ties included) cleared Sorted")
	}
	ch.AppendCell([]int64{1, 9}, nil)
	if ch.Sorted || ch.IsSortedCOrder() {
		t.Fatal("an out-of-order append kept Sorted")
	}
}

// geoKeysArray holds one cell in each of the 4,050 lon/lat chunks of the
// paper's geo layout (90×45 chunks of 4°×4°).
func geoKeysArray() *Array {
	a := MustNew(MustParseSchema("Geo<v:int>[time=1,64,64, lon=1,3600,40, lat=1,1800,40]"))
	for lon := int64(1); lon <= 3600; lon += 40 {
		for lat := int64(1); lat <= 1800; lat += 40 {
			a.MustPut([]int64{1, lon, lat}, []Value{IntValue(lon ^ lat)})
		}
	}
	return a
}

func BenchmarkSortedKeys(b *testing.B) {
	a := geoKeysArray()
	if len(a.Chunks) != 4050 {
		b.Fatalf("geo grid has %d chunks, want 4050", len(a.Chunks))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.SortedKeys()) != 4050 {
			b.Fatal("lost keys")
		}
	}
}

// BenchmarkChunkLookup measures the key encoding plus map lookup that
// Put and Get do for every cell. The memory-bench CI job gates it at
// 0 allocs/op.
func BenchmarkChunkLookup(b *testing.B) {
	a := geoKeysArray()
	coords := make([][]int64, 0, 4050)
	for _, ch := range a.Chunks {
		coords = append(coords, ch.CoordsAt(0, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.chunkOf(coords[i%len(coords)]) == nil {
			b.Fatal("lookup missed a stored chunk")
		}
	}
}
