package pipeline

import (
	"fmt"
	"math"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
)

// putClamped stores an output cell, clamping coordinates into the
// destination's dimension ranges (join keys can exceed a destination
// declared smaller than the data). It reports whether any coordinate was
// clamped; under strict bounds an out-of-range cell is an error instead.
func putClamped(a *array.Array, coords []int64, attrs []array.Value, strict bool) (bool, error) {
	clamped := false
	for i, d := range a.Schema.Dims {
		if coords[i] < d.Start || coords[i] > d.End {
			if strict {
				return false, fmt.Errorf("pipeline: output cell %v outside destination dimension %s=[%d,%d] (StrictBounds)",
					coords, d.Name, d.Start, d.End)
			}
			clamped = true
			if coords[i] < d.Start {
				coords[i] = d.Start
			} else {
				coords[i] = d.End
			}
		}
	}
	return clamped, a.Put(coords, attrs)
}

// newOutputArray materializes the destination schema. A destination with
// no dimensions (unordered output, e.g. INTO T<i:int,j:int>[]) gets a
// synthetic row dimension.
func newOutputArray(js *logical.JoinSchema) (*array.Array, error) {
	out := js.Pred.Out.Clone()
	if len(out.Dims) == 0 {
		out.Dims = []array.Dimension{{Name: "row_", Start: 0, End: math.MaxInt64 / 2, ChunkInterval: 1 << 20}}
	}
	return array.New(out)
}

// projector maps a matched tuple pair to an output cell.
type projector struct {
	js       *logical.JoinSchema
	dimSrc   []fieldSrc
	attrSrc  []fieldSrc
	rowDim   bool
	nextRow  int64
	carryPos [2]map[int]int // original attr index -> tuple.Attrs position
	attrFn   func(l, r *join.Tuple) []array.Value
}

// forUnit returns a unit-local copy that numbers synthetic rows 0, 1, 2, …
// The compare runner projects each join unit independently (units finish
// in shuffle-completion order), then renumbers rows to the destination
// node's stride-k sequence when unit results are folded in deterministic
// order.
func (p *projector) forUnit() *projector {
	c := *p
	c.nextRow = 0
	return &c
}

// fieldSrc locates one output field's value in a matched pair.
type fieldSrc struct {
	side  int // 0 = left tuple, 1 = right tuple
	isDim bool
	idx   int // coords index, or position within tuple.Attrs
}

func newProjector(js *logical.JoinSchema, attrFn func(l, r *join.Tuple) []array.Value) (*projector, error) {
	p := &projector{js: js, attrFn: attrFn}
	p.carryPos[0] = carryPositions(js.LeftCarry)
	p.carryPos[1] = carryPositions(js.RightCarry)
	out := js.Pred.Out
	if len(out.Dims) == 0 {
		p.rowDim = true
	} else {
		for _, d := range out.Dims {
			src, err := p.resolveField(d.Name)
			if err != nil {
				return nil, err
			}
			p.dimSrc = append(p.dimSrc, src)
		}
	}
	if attrFn == nil {
		for _, a := range out.Attrs {
			src, err := p.resolveField(a.Name)
			if err != nil {
				return nil, err
			}
			p.attrSrc = append(p.attrSrc, src)
		}
	}
	return p, nil
}

func carryPositions(carry []int) map[int]int {
	m := make(map[int]int, len(carry))
	for pos, idx := range carry {
		m[idx] = pos
	}
	return m
}

// resolveField finds where an output field's value comes from: a source
// dimension, a carried source attribute, or — when the name matches a
// predicate term — the corresponding key value.
func (p *projector) resolveField(name string) (fieldSrc, error) {
	src := p.js.Pred
	schemas := [2]*array.Schema{src.Left, src.Right}
	for side, s := range schemas {
		if i := s.DimIndex(name); i >= 0 {
			return fieldSrc{side: side, isDim: true, idx: i}, nil
		}
		if i := s.AttrIndex(name); i >= 0 {
			if pos, ok := p.carryPos[side][i]; ok {
				return fieldSrc{side: side, isDim: false, idx: pos}, nil
			}
		}
	}
	// Predicate-name match: τ renames a joined pair (e.g. dimension v fed
	// by A.v = B.w). Use the left side's term.
	for pi, pair := range src.Resolved.Pred {
		if pair.Left.Name == name || pair.Right.Name == name {
			ref := src.Resolved.Left[pi]
			if ref.IsDim {
				return fieldSrc{side: 0, isDim: true, idx: ref.Index}, nil
			}
			if pos, ok := p.carryPos[0][ref.Index]; ok {
				return fieldSrc{side: 0, isDim: false, idx: pos}, nil
			}
		}
	}
	return fieldSrc{}, fmt.Errorf("pipeline: output field %q has no source in %s or %s",
		name, src.Left.Name, src.Right.Name)
}

func (p *projector) project(l, r *join.Tuple) ([]int64, []array.Value) {
	pick := func(src fieldSrc) array.Value {
		t := l
		if src.side == 1 {
			t = r
		}
		if src.isDim {
			return array.IntValue(t.Coords[src.idx])
		}
		return t.Attrs[src.idx]
	}
	var coords []int64
	if p.rowDim {
		coords = []int64{p.nextRow}
		p.nextRow++
	} else {
		coords = make([]int64, len(p.dimSrc))
		for i, src := range p.dimSrc {
			coords[i] = pick(src).AsInt()
		}
	}
	if p.attrFn != nil {
		return coords, p.attrFn(l, r)
	}
	attrs := make([]array.Value, len(p.attrSrc))
	for i, src := range p.attrSrc {
		attrs[i] = pick(src)
	}
	return coords, attrs
}
