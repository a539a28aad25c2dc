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

// bucketedSliceSet maps one side cell by cell in bucketedOrder: the
// reference both mapping paths must reproduce exactly.
func bucketedSliceSet(t *testing.T, d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper) *SliceSet {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ss := &SliceSet{Spec: spec, Nodes: k, cells: make([][][]join.Tuple, spec.NumUnits)}
	for u := range ss.cells {
		ss.cells[u] = make([][]join.Tuple, k)
	}
	for node, keys := range bucketedOrder(d, k) {
		for _, key := range keys {
			ch := d.Array.Chunks[key]
			for row := 0; row < ch.Len(); row++ {
				coords, attrs := ch.Cell(row)
				u, err := unitOfCell(spec, m, coords, attrs)
				if err != nil {
					t.Fatal(err)
				}
				ss.cells[u][node] = append(ss.cells[u][node], join.Tuple{
					Key:    join.KeyOf(m.KeyRefs, coords, attrs),
					Coords: coords,
					Attrs:  attrs,
				})
			}
		}
	}
	return ss
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
// sort-then-bucket order, and MapSideN and MapSideStream produce exactly
// the slices the bucketed reference maps.
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
					ref := bucketedSliceSet(t, d, k, tc.spec, tc.m)
					ss, err := MapSideN(d, k, tc.spec, tc.m, 4)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ss.cells, ref.cells) {
						t.Fatal("MapSideN slices differ from the bucketed reference")
					}
					rs, err := MapSideStream(d, k, tc.spec, tc.m, 4, StreamConfig{BatchRows: 64})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rs.Sizes(), ref.Sizes()) {
						t.Fatal("MapSideStream slice sizes differ from the bucketed reference")
					}
					for u := 0; u < tc.spec.NumUnits; u++ {
						if rs.UnitTotal(u) == 0 {
							continue
						}
						for dest := 0; dest < k; dest++ {
							rd := rs.Reader(u, dest)
							got := rd.Materialize()
							if want := ref.Assemble(u, dest); !reflect.DeepEqual(got, want) {
								t.Fatalf("unit %d dest %d: streamed tuples differ from the bucketed reference", u, dest)
							}
							rd.Close()
						}
					}
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
