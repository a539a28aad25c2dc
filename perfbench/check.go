package main

import (
	"fmt"
	"math"

	"shufflejoin"
	"shufflejoin/internal/array"
)

// want is what one query must return. matches and multiset come from the
// generated inputs (expectJoin); ordered pins the exact output — cells,
// coordinates and scan order — to the serial reference run made during
// set-up, and is 0 where no reference exists (ingest deltas).
type want struct {
	matches  int64
	multiset uint64
	ordered  uint64
}

// digest summarizes a query's output as scanned.
type digest struct {
	cells    int64
	multiset uint64 // wrapping sum of valuesHash over cells: order-free
	ordered  uint64 // FNV-1a over coordinates and values in scan order
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}

// valueWord maps an output value to a tagged 64-bit word.
func valueWord(v any) (tag, word uint64) {
	switch x := v.(type) {
	case int64:
		return 1, uint64(x)
	case float64:
		return 2, math.Float64bits(x)
	case string:
		h := uint64(fnvOffset)
		for i := 0; i < len(x); i++ {
			h ^= uint64(x[i])
			h *= fnvPrime
		}
		return 3, h
	}
	return 0, 0
}

// mix is a 64-bit finalizer, so summed hashes of distinct tuples do not
// cancel.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// valuesHash hashes one output cell's attribute values.
func valuesHash(vals ...any) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vals {
		tag, w := valueWord(v)
		h = fnvWord(fnvWord(h, tag), w)
	}
	return mix(h)
}

func newDigest() digest { return digest{ordered: fnvOffset} }

func (d *digest) add(coords []int64, vals []any) {
	d.cells++
	d.multiset += valuesHash(vals...)
	for _, c := range coords {
		d.ordered = fnvWord(d.ordered, uint64(c))
	}
	for _, v := range vals {
		tag, w := valueWord(v)
		d.ordered = fnvWord(fnvWord(d.ordered, tag), w)
	}
}

// digestResult scans a facade result.
func digestResult(r *shufflejoin.Result) digest {
	d := newDigest()
	r.Scan(func(c shufflejoin.Cell) bool {
		d.add(c.Coords, c.Values)
		return true
	})
	return d
}

// digestArray scans an engine output array with the same hashing as
// digestResult, so mirror and facade outputs compare directly.
func digestArray(a *array.Array) digest {
	d := newDigest()
	vals := make([]any, 0, 4)
	a.Scan(func(coords []int64, attrs []array.Value) bool {
		vals = vals[:0]
		for _, v := range attrs {
			switch v.Kind {
			case array.TypeInt64:
				vals = append(vals, v.Int)
			case array.TypeFloat64:
				vals = append(vals, v.F)
			default:
				vals = append(vals, v.Str)
			}
		}
		d.add(coords, vals)
		return true
	})
	return d
}

// check compares a query's reported match count and scanned output
// against what it must return.
func (w want) check(matches int64, d digest) error {
	switch {
	case matches != w.matches:
		return fmt.Errorf("matches %d, want %d", matches, w.matches)
	case d.cells != w.matches:
		return fmt.Errorf("scanned %d output cells, want %d", d.cells, w.matches)
	case d.multiset != w.multiset:
		return fmt.Errorf("output values digest %#x, want %#x", d.multiset, w.multiset)
	case w.ordered != 0 && d.ordered != w.ordered:
		return fmt.Errorf("output fingerprint %#x differs from the serial reference %#x", d.ordered, w.ordered)
	}
	return nil
}
