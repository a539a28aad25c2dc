// Package shuffle implements the join unit and slice primitives of the
// shuffle join framework (Section 3.1 of the paper).
//
// A join unit is a non-overlapping collection of cells grouped by the join
// predicate: every pair of cells that can possibly match falls into the
// same unit, so units can be processed independently and in parallel. Units
// are built dynamically at query time by a slice function that each node
// applies to its local cells. The per-node fragment of a unit is a slice —
// the granularity of network transfer during data alignment.
//
// Two unit kinds exist, matching the logical planner's operators: chunk
// units (range partitioning by the join schema's chunk intervals, produced
// by redim/rechunk/scan) and hash units (hash buckets over the predicate
// key, produced by the hash operator).
package shuffle

import (
	"fmt"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
)

// UnitKind distinguishes chunk-shaped join units from hash buckets.
type UnitKind int

const (
	// ChunkUnits groups cells by their chunk position in the join schema's
	// dimension space (ordered; supports merge join).
	ChunkUnits UnitKind = iota
	// HashUnits groups cells by a hash of the predicate key (unordered,
	// dimension-less buckets; finer-grained slices).
	HashUnits
)

func (k UnitKind) String() string {
	if k == HashUnits {
		return "hash buckets"
	}
	return "chunks"
}

// UnitSpec describes how cells map to join units. For ChunkUnits, JoinDims
// gives the join schema's dimensions (range + chunk interval per dimension)
// and each side supplies one Ref per join dimension; the unit id is the
// linearized chunk index. For HashUnits, NumUnits buckets are keyed on the
// full predicate key.
type UnitSpec struct {
	Kind     UnitKind
	NumUnits int
	JoinDims []array.Dimension // ChunkUnits only
}

// Validate checks internal consistency of the spec.
func (u *UnitSpec) Validate() error {
	switch u.Kind {
	case HashUnits:
		if u.NumUnits <= 0 {
			return fmt.Errorf("shuffle: hash units need NumUnits > 0, got %d", u.NumUnits)
		}
	case ChunkUnits:
		if len(u.JoinDims) == 0 {
			return fmt.Errorf("shuffle: chunk units need at least one join dimension")
		}
		n := 1
		for _, d := range u.JoinDims {
			if err := d.Validate(); err != nil {
				return err
			}
			n *= int(d.ChunkCount())
		}
		if u.NumUnits == 0 {
			u.NumUnits = n
		} else if u.NumUnits != n {
			return fmt.Errorf("shuffle: NumUnits %d disagrees with join-dim grid %d", u.NumUnits, n)
		}
	default:
		return fmt.Errorf("shuffle: unknown unit kind %d", u.Kind)
	}
	return nil
}

// Ordered reports whether the units carry a dimension order (chunk units
// do; hash buckets are dimension-less).
func (u *UnitSpec) Ordered() bool { return u.Kind == ChunkUnits }

// SideMapper is the slice function for one side of the join, closed over
// the resolved predicate: how to extract the comparison key and (for chunk
// units) the join-space coordinates from a local cell, and which attributes
// the vertically partitioned engine must carry through the shuffle.
type SideMapper struct {
	KeyRefs  []join.Ref // predicate terms of this side, in predicate order
	DimRefs  []join.Ref // ChunkUnits: per JoinDims entry, value source
	CarryAll bool       // carry every attribute (default: only Carry)
	Carry    []int      // attribute indices to carry when !CarryAll
}
