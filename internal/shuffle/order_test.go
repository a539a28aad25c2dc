package shuffle

import (
	"fmt"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/workload"
)

// bucketedOrder is the per-node chunk order slice mapping used before
// it read the sealed array's per-node index: every query sorted all
// chunk keys into C-order and bucketed them by placement.
func bucketedOrder(d *cluster.Distributed, k int) [][]array.ChunkKey {
	perNode := make([][]array.ChunkKey, k)
	for _, key := range d.Array.SortedKeys() {
		node := d.Placement[key]
		perNode[node] = append(perNode[node], key)
	}
	return perNode
}

// localOrder is the per-node chunk order slice mapping visits today:
// the sealed array's per-node index.
func localOrder(d *cluster.Distributed, k int) [][]array.ChunkKey {
	perNode := make([][]array.ChunkKey, k)
	for node := range perNode {
		perNode[node] = d.LocalChunks(node)
	}
	return perNode
}

// refUnit is the reference unit function over a full cell: FNV-1a over
// the predicate key for hash units, the clamped join-grid position for
// chunk units.
func refUnit(spec *UnitSpec, m *SideMapper, coords []int64, attrs []array.Value) int {
	if spec.Kind == HashUnits {
		var h uint64 = 1469598103934665603
		for _, v := range join.KeyOf(m.KeyRefs, coords, attrs) {
			h ^= v.HashKey()
			h *= 1099511628211
		}
		return int(h % uint64(spec.NumUnits))
	}
	unit := 0
	for i, d := range spec.JoinDims {
		ref := m.DimRefs[i]
		var v int64
		if ref.IsDim {
			v = coords[ref.Index]
		} else {
			v = attrs[ref.Index].AsInt()
		}
		v = max(d.Start, min(v, d.End))
		unit = unit*int(d.ChunkCount()) + int(d.ChunkIndex(v))
	}
	return unit
}

// refSlices is the reference slice mapper: it maps one side cell by
// cell over full cells (Chunk.Cell, join.KeyOf), visiting each node's
// chunks in the given order. slices[u][node] holds the slice's tuples
// in map order, nil when empty. Both mapping orders the engine has used
// must reproduce it exactly.
func refSlices(t *testing.T, d *cluster.Distributed, order [][]array.ChunkKey, spec *UnitSpec, m *SideMapper) [][][]join.Tuple {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	carry := m.Carry
	if m.CarryAll {
		carry = make([]int, len(d.Array.Schema.Attrs))
		for i := range carry {
			carry[i] = i
		}
	}
	out := make([][][]join.Tuple, spec.NumUnits)
	for u := range out {
		out[u] = make([][]join.Tuple, len(order))
	}
	for node, keys := range order {
		for _, key := range keys {
			ch := d.Array.Chunks[key]
			for row := 0; row < ch.Len(); row++ {
				coords, attrs := ch.Cell(row)
				tup := join.Tuple{Key: join.KeyOf(m.KeyRefs, coords, attrs), Coords: coords}
				for _, ai := range carry {
					tup.Attrs = append(tup.Attrs, attrs[ai])
				}
				u := refUnit(spec, m, coords, attrs)
				out[u][node] = append(out[u][node], tup)
			}
		}
	}
	return out
}

// refAssemble concatenates unit u's reference slices in arrival order
// at dest: the destination's own slice first, then the others by node.
func refAssemble(slices [][][]join.Tuple, u, dest int) []join.Tuple {
	out := append([]join.Tuple(nil), slices[u][dest]...)
	for node, s := range slices[u] {
		if node != dest {
			out = append(out, s...)
		}
	}
	return out
}

// refSizes returns the reference slice statistics s_{i,j}.
func refSizes(slices [][][]join.Tuple) [][]int64 {
	out := make([][]int64, len(slices))
	for u, row := range slices {
		out[u] = make([]int64, len(row))
		for node, s := range row {
			out[u][node] = int64(len(s))
		}
	}
	return out
}

// checkAgainstRef fails unless rs reports the reference's slice
// statistics and every reader decodes to the reference's assembled unit.
func checkAgainstRef(t *testing.T, rs *RunSet, ref [][][]join.Tuple) {
	t.Helper()
	if got, want := rs.Sizes(), refSizes(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sizes differ:\nstream %v\nref    %v", got, want)
	}
	for u := range ref {
		for dest := 0; dest < rs.Nodes; dest++ {
			want := refAssemble(ref, u, dest)
			rd := rs.Reader(u, dest)
			got := rd.Materialize()
			if rd.Len() != len(want) {
				t.Fatalf("unit %d dest %d: Len = %d, want %d", u, dest, rd.Len(), len(want))
			}
			if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("unit %d dest %d: decoded tuples differ from the reference", u, dest)
			}
			rd.Close()
		}
	}
}

// geoSide returns the lon/lat join mappers of a [time, lon, lat] array:
// chunk units over the 90×45 lon/lat grid (the paper's 4,050 geo join
// units) and hash units over the same key.
func geoSide(d *cluster.Distributed) []struct {
	name string
	spec *UnitSpec
	m    *SideMapper
} {
	dims := d.Array.Schema.Dims
	lon := join.Ref{IsDim: true, Index: 1, Name: dims[1].Name}
	lat := join.Ref{IsDim: true, Index: 2, Name: dims[2].Name}
	refs := []join.Ref{lon, lat}
	return []struct {
		name string
		spec *UnitSpec
		m    *SideMapper
	}{
		{"chunk-units", &UnitSpec{Kind: ChunkUnits, JoinDims: dims[1:]}, &SideMapper{KeyRefs: refs, DimRefs: refs, CarryAll: true}},
		{"hash-units", &UnitSpec{Kind: HashUnits, NumUnits: 64}, &SideMapper{KeyRefs: refs, CarryAll: true}},
	}
}

// TestSliceMapOrderMatchesBucketedSort is the differential test for
// slice mapping's chunk order: on geo-shaped arrays under both placement
// policies, the per-node index mapping visits equals the old
// sort-then-bucket order, and MapSideStream produces exactly the slices
// the reference mapper maps in that order.
func TestSliceMapOrderMatchesBucketedSort(t *testing.T) {
	const k = 4
	g := workload.GeoConfig{Cells: 6000, Seed: 5}
	arrays := []*array.Array{workload.AISLike("AIS", g), workload.MODISLike("MODIS", g)}
	policies := []cluster.PlacementPolicy{cluster.RoundRobin, cluster.HashChunks}
	for _, a := range arrays {
		for _, policy := range policies {
			d := cluster.Distribute(a, k, policy)
			want := bucketedOrder(d, k)
			for node := 0; node < k; node++ {
				got := d.LocalChunks(node)
				if len(got) == 0 && len(want[node]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want[node]) {
					t.Fatalf("%s/policy=%d node %d: LocalChunks order differs from sorted-and-bucketed keys",
						a.Schema.Name, policy, node)
				}
			}
			for _, tc := range geoSide(d) {
				t.Run(fmt.Sprintf("%s/policy=%d/%s", a.Schema.Name, policy, tc.name), func(t *testing.T) {
					ref := refSlices(t, d, want, tc.spec, tc.m)
					rs, err := MapSideStream(d, k, tc.spec, tc.m, 4, StreamConfig{BatchRows: 64})
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstRef(t, rs, ref)
				})
			}
		}
	}
}

// BenchmarkMapSideStream maps a geo-shaped side (MODIS-like, 4,050
// lon/lat chunk units, hash-placed over 4 nodes) per iteration: the
// slice-mapping layer of a geo join, with batches recycled between
// iterations as a finished query would.
func BenchmarkMapSideStream(b *testing.B) {
	const k = 4
	a := workload.MODISLike("MODIS", workload.GeoConfig{Cells: 50_000, Seed: 11})
	d := cluster.Distribute(a, k, cluster.HashChunks)
	tc := geoSide(d)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := MapSideStream(d, k, tc.spec, tc.m, 1, StreamConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < tc.spec.NumUnits; u++ {
			rs.ReleaseUnit(u)
		}
	}
	b.ReportMetric(float64(a.CellCount()), "cells/op")
}
