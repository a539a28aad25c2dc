package main

import (
	"fmt"
	"math"
	"math/rand"

	"shufflejoin"
	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
)

// dataset is one generated input array: its schema literal and its cells
// in insertion order. The benchmark generates every input itself from the
// seed, then loads the same cells into the facade (CreateArray/Insert)
// and, for the traced run, into a mirror cluster.
type dataset struct {
	schema string
	coords [][]int64
	values [][]any // int64 or float64 per attribute
	hashed bool    // placed by chunk hash instead of round-robin
}

func (d *dataset) add(coords []int64, values ...any) {
	d.coords = append(d.coords, coords)
	d.values = append(d.values, values)
}

// load creates the array in db and inserts every cell; the array stays
// pending until sealed (explicitly, or by the next query).
func (d *dataset) load(db *shufflejoin.DB) (*shufflejoin.Array, error) {
	ar, err := db.CreateArray(d.schema)
	if err != nil {
		return nil, err
	}
	if d.hashed {
		ar.DistributeByHash()
	}
	for i, c := range d.coords {
		if err := ar.Insert(c, d.values[i]...); err != nil {
			return nil, err
		}
	}
	return ar, nil
}

// loadMirror builds the same array directly and distributes it over c
// exactly as the facade's Seal does (sort, then the array's placement).
func (d *dataset) loadMirror(c *cluster.Cluster) error {
	s, err := array.ParseSchema(d.schema)
	if err != nil {
		return err
	}
	a, err := array.New(s)
	if err != nil {
		return err
	}
	attrs := make([]array.Value, 0, 4)
	for i, coords := range d.coords {
		attrs = attrs[:0]
		for _, v := range d.values[i] {
			switch x := v.(type) {
			case int64:
				attrs = append(attrs, array.IntValue(x))
			case float64:
				attrs = append(attrs, array.FloatValue(x))
			default:
				return fmt.Errorf("perfbench: unsupported value %T", v)
			}
		}
		if err := a.Put(coords, attrs); err != nil {
			return err
		}
	}
	a.SortAll()
	policy := cluster.RoundRobin
	if d.hashed {
		policy = cluster.HashChunks
	}
	c.Load(a, policy)
	return nil
}

// pairChunks is the chunk count of a 1-D pair array (servebench's shape).
const pairChunks = 8

// pairSide generates one side of a joinable 1-D pair: cells unique
// coordinates over the domain [1, 2·cells] cut into pairChunks chunks.
// With skew > 1 the cells pile into Zipf-distributed chunks (the paper's
// chunk-density skew; a full chunk spills into the next one), otherwise
// they deal evenly over the chunks.
func pairSide(name, attr string, cells int, skew float64, rng *rand.Rand) *dataset {
	domain := int64(cells) * 2
	chunk := domain / pairChunks
	if chunk < 1 {
		chunk = 1
	}
	d := &dataset{schema: fmt.Sprintf("%s<%s:int>[i=1,%d,%d]", name, attr, domain, chunk)}
	var zipf *rand.Zipf
	if skew > 1 {
		zipf = rand.NewZipf(rng, skew, 1, pairChunks-1)
	}
	var fill [pairChunks]int64
	for j := 0; j < cells; j++ {
		k := j % pairChunks
		if zipf != nil {
			k = int(zipf.Uint64())
		}
		for fill[k] >= chunk {
			k = (k + 1) % pairChunks
		}
		coord := int64(k)*chunk + fill[k] + 1
		fill[k]++
		d.add([]int64{coord}, rng.Int63n(1000))
	}
	return d
}

// deltaSide generates an ingest delta: cells distinct coordinates drawn
// uniformly over [1, domain] (the resident scan array's domain and chunk
// grid), so it joins the scan array on coordinate intersections.
func deltaSide(name string, cells int, domain int64, rng *rand.Rand) *dataset {
	chunk := domain / pairChunks
	d := &dataset{schema: fmt.Sprintf("%s<x:int>[i=1,%d,%d]", name, domain, chunk)}
	seen := make(map[int64]bool, cells)
	for len(d.coords) < cells {
		c := rng.Int63n(domain) + 1
		if seen[c] {
			continue
		}
		seen[c] = true
		d.add([]int64{c}, rng.Int63n(1000))
	}
	return d
}

// Geo analogue geometry (the paper's §6.3 layout): longitude and latitude
// in tenths of a degree, 4°×4° chunks — 90×45 = 4,050 lon-lat join
// units — over 64 time steps held in one time chunk.
const (
	geoScale     = 10
	geoChunk     = 4 * geoScale
	geoTimeSteps = 64
	geoLon       = 360 * geoScale
	geoLat       = 180 * geoScale
	geoChunks    = (geoLon / geoChunk) * (geoLat / geoChunk)
)

func geoSchema(name, attrs string) string {
	return fmt.Sprintf("%s<%s>[time=1,%d,%d, longitude=1,%d,%d, latitude=1,%d,%d]",
		name, attrs, geoTimeSteps, geoTimeSteps, geoLon, geoChunk, geoLat, geoChunk)
}

func clampCoord(v, hi int64) int64 {
	if v < 1 {
		return 1
	}
	if v > hi {
		return hi
	}
	return v
}

// modisLike generates the satellite-band analogue: one reading in every
// lon-lat chunk, the rest near-uniform with an arcsine (equator-ward)
// latitude density; one float reflectance attribute. Round-robin placement
// deals chunks to nodes in key order, so a polar chunk left empty by
// chance would move every later chunk to another node; covering every
// chunk keeps the placement the same for every seed.
func modisLike(name string, cells int, rng *rand.Rand) *dataset {
	d := &dataset{schema: geoSchema(name, "reflectance:float")}
	const perRow = geoLon / geoChunk
	for c := 0; c < cells; c++ {
		var lon, lat int64
		if c < geoChunks {
			lon = int64(c%perRow)*geoChunk + rng.Int63n(geoChunk) + 1
			lat = int64(c/perRow)*geoChunk + rng.Int63n(geoChunk) + 1
		} else {
			x := math.Asin(2*rng.Float64()-1) / (math.Pi / 2)
			lat = clampCoord(int64((90.5+x*89)*geoScale), geoLat)
			lon = rng.Int63n(geoLon) + 1
		}
		tm := rng.Int63n(geoTimeSteps) + 1
		d.add([]int64{tm, lon, lat}, rng.Float64())
	}
	return d
}

// aisPorts are the ship-track analogue's fixed port hotspots; the seed
// varies the broadcasts, never the coastline, so every seed has the same
// skew shape.
var aisPorts = func() [][2]float64 {
	rng := rand.New(rand.NewSource(7))
	ports := make([][2]float64, 24)
	for i := range ports {
		ports[i] = [2]float64{float64(rng.Int63n(120) + 60), float64(rng.Int63n(60) + 60)}
	}
	return ports
}()

// aisPort picks a port with Zipf(1.6) weights: a few ports dominate.
func aisPort(rng *rand.Rand) [2]float64 {
	var total float64
	for i := range aisPorts {
		total += math.Pow(float64(i+1), -1.6)
	}
	f := rng.Float64() * total
	for i, p := range aisPorts {
		f -= math.Pow(float64(i+1), -1.6)
		if f <= 0 {
			return p
		}
	}
	return aisPorts[len(aisPorts)-1]
}

// aisLike generates the ship-track analogue: ~76% of broadcasts cluster
// tightly around ports, most of the rest follow lanes between two distinct
// ports, and a thin remainder is open water — so a few percent of the
// chunks hold most of the cells. Attributes are a ship id and a speed.
// The array is placed by chunk hash, which does not depend on which
// chunks happen to be occupied.
func aisLike(name string, cells int, rng *rand.Rand) *dataset {
	d := &dataset{schema: geoSchema(name, "ship_id:int, speed:float"), hashed: true}
	for c := 0; c < cells; c++ {
		var lon, lat int64
		switch {
		case rng.Float64() < 0.76:
			p := aisPort(rng)
			lon = clampCoord(int64((p[0]+rng.NormFloat64()*2.2)*geoScale), geoLon)
			lat = clampCoord(int64((p[1]+rng.NormFloat64()*2.2)*geoScale), geoLat)
		case rng.Float64() < 0.6:
			p1, p2 := aisPort(rng), aisPort(rng)
			for p2 == p1 {
				p2 = aisPort(rng)
			}
			f := rng.Float64()
			lon = clampCoord(int64((p1[0]+f*(p2[0]-p1[0]))*geoScale), geoLon)
			lat = clampCoord(int64((p1[1]+f*(p2[1]-p1[1]))*geoScale), geoLat)
		default:
			lon = rng.Int63n(geoLon) + 1
			lat = rng.Int63n(geoLat) + 1
		}
		tm := rng.Int63n(geoTimeSteps) + 1
		d.add([]int64{tm, lon, lat}, rng.Int63n(50_000), rng.Float64()*30)
	}
	return d
}

// joinKey is a cell's join-key coordinates (at most three).
type joinKey [3]int64

func keyOf(coords []int64, pos []int) joinKey {
	var k joinKey
	for i, p := range pos {
		k[i] = coords[p]
	}
	return k
}

// keyIndex maps join keys to the indexes of the cells that hold them.
type keyIndex map[joinKey][]int

// indexBy indexes d's cells by their coordinates at pos.
func (d *dataset) indexBy(pos []int) keyIndex {
	idx := make(keyIndex, len(d.coords))
	for i, c := range d.coords {
		k := keyOf(c, pos)
		idx[k] = append(idx[k], i)
	}
	return idx
}

// expectJoin is the input-side oracle of an equi-join: the match count
// and the order-independent digest of the projected value pairs, for
// left ⋈ right with left keyed at lkeys and right indexed by its keys,
// projecting the first attribute of each side.
func expectJoin(left *dataset, lkeys []int, right *dataset, ridx keyIndex) want {
	var w want
	for i, c := range left.coords {
		for _, j := range ridx[keyOf(c, lkeys)] {
			w.matches++
			w.multiset += valuesHash(left.values[i][0], right.values[j][0])
		}
	}
	return w
}
