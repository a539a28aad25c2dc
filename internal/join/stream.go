// The cell-comparison algorithms over pull-based tuple streams: each
// side of a join unit arrives as a TupleStream instead of a fully
// materialized []Tuple. Emit order and statistics are pinned against a
// nested-loop oracle over full tuples (stream_test.go) and, end to end,
// by the pipeline's golden digests.
package join

import (
	"fmt"

	"shufflejoin/internal/par"
)

// TupleStream is a pull-based source of one join unit's tuples for one
// side of the comparison.
//
// Len reports the total tuple count up front (slice sizes are known
// after slice mapping), which the algorithms use for build/inner-side
// selection.
//
// Next returns the next window of tuples, or ok=false at exhaustion.
// The window — and every slice its tuples reference — is valid only
// until the following Next call, so consumers must not retain it.
//
// Materialize decodes the entire remaining stream into storage owned by
// the stream, valid until the stream is closed or reused. It is the
// build-side escape hatch: hash build, merge sort, and the nested-loop
// inner side all need random access over one full side. Call it before
// any Next, at most once.
type TupleStream interface {
	Len() int
	Next() ([]Tuple, bool)
	Materialize() []Tuple
}

// SliceStream adapts an in-memory []Tuple to TupleStream, yielding
// windows of at most Window tuples (0 = everything in one window).
// Used by tests and benchmarks as the bridge from in-memory sides.
type SliceStream struct {
	Tuples []Tuple
	Window int
	pos    int
}

// Len implements TupleStream.
func (s *SliceStream) Len() int { return len(s.Tuples) }

// Next implements TupleStream.
func (s *SliceStream) Next() ([]Tuple, bool) {
	if s.pos >= len(s.Tuples) {
		return nil, false
	}
	w := s.Window
	if w <= 0 || s.pos+w > len(s.Tuples) {
		w = len(s.Tuples) - s.pos
	}
	out := s.Tuples[s.pos : s.pos+w]
	s.pos += w
	return out, true
}

// Materialize implements TupleStream.
func (s *SliceStream) Materialize() []Tuple {
	out := s.Tuples[s.pos:]
	s.pos = len(s.Tuples)
	return out
}

// RunStream executes the chosen algorithm over one join unit's streamed
// sides. Emit order and Stats do not depend on the streams' window
// sizes.
func RunStream(alg Algorithm, left, right TupleStream, emit EmitFunc) (Stats, error) {
	switch alg {
	case Hash:
		return HashJoinStream(left, right, emit), nil
	case Merge:
		return MergeJoinStream(left, right, emit)
	case NestedLoop:
		return NestedLoopJoinStream(left, right, emit), nil
	default:
		return Stats{}, fmt.Errorf("join: unknown algorithm %d", alg)
	}
}

// HashJoinStream builds a hash index over the smaller side of the join
// (the left side on ties) and probes it with each tuple of the larger
// side, one window at a time — bounded probe-side memory. Building a
// hash entry is costlier than probing one, which is why the algorithm
// always builds on the small side (Section 5.1's cost
// C_i = b·t_i + p·u_i). Chains are built by inserting in descending
// tuple order so traversal yields ascending build order: each probe
// tuple emits its matches in build-side order. Comparisons counts
// build tuples whose full 64-bit key hash equals the probe's.
func HashJoinStream(left, right TupleStream, emit EmitFunc) Stats {
	var st Stats
	build, probe := left, right
	swapped := false
	if right.Len() < left.Len() {
		build, probe = right, left
		swapped = true
	}
	bt := build.Materialize()
	idx := getHashIndex(len(bt))
	for i := len(bt) - 1; i >= 0; i-- {
		idx.insert(i, keyHash(&bt[i]))
	}
	st.BuildOps = int64(len(bt))
	for {
		win, ok := probe.Next()
		if !ok {
			break
		}
		for i := range win {
			st.ProbeOps++
			h := keyHash(&win[i])
			for j := idx.first(h); j >= 0; j = idx.next[j] {
				if idx.hashes[j] != h {
					continue
				}
				st.Comparisons++
				if KeyEqual(&win[i], &bt[j]) {
					st.Matches++
					if emit != nil {
						if swapped {
							emit(&win[i], &bt[j])
						} else {
							emit(&bt[j], &win[i])
						}
					}
				}
			}
		}
	}
	putHashIndex(idx)
	return st
}

// MergeJoinStream is the merge join over streams. Reassembled join
// units arrive as concatenations of sorted slices, so both sides are
// materialized and sorted with SortTuples (Section 3.4's preprocessing)
// before MergeJoin's cursor walk; sort.Slice is deterministic for a
// given input order, so tie order is reproducible.
func MergeJoinStream(left, right TupleStream, emit EmitFunc) (Stats, error) {
	lt := left.Materialize()
	rt := right.Materialize()
	SortTuples(lt)
	SortTuples(rt)
	return MergeJoin(lt, rt, emit)
}

// NestedLoopJoinStream loops the larger side over the smaller, comparing
// every pair: the smaller side (the left side on ties) is materialized
// as the inner side and the larger side streams through one window at
// a time. Polynomial O(n_l · n_r) time; the paper shows it is never
// profitable (Sections 4 and 6.1) but it remains available as the
// fallback that works on any input.
func NestedLoopJoinStream(left, right TupleStream, emit EmitFunc) Stats {
	var st Stats
	inner, outer := left, right
	swapped := false
	if right.Len() < left.Len() {
		inner, outer = right, left
		swapped = true
	}
	it := inner.Materialize()
	for {
		win, ok := outer.Next()
		if !ok {
			break
		}
		for i := range win {
			for j := range it {
				st.Comparisons++
				if KeyEqual(&win[i], &it[j]) {
					st.Matches++
					if emit != nil {
						if swapped {
							emit(&win[i], &it[j])
						} else {
							emit(&it[j], &win[i])
						}
					}
				}
			}
		}
	}
	return st
}

// hashIndex is a pooled open-chaining hash table over build-side tuple
// indices: slots holds the head index per bucket (-1 empty), next the
// chain links, hashes the full 64-bit key hash per tuple (so bucket
// collisions between distinct hashes are skipped without a key
// comparison).
type hashIndex struct {
	mask   uint64
	slots  []int32
	next   []int32
	hashes []uint64
}

// hashIndexPool is sharded (par.Pool) rather than a sync.Pool: under
// 16-way concurrent serving every query's every unit hits this pool, and
// sync.Pool both drains under GC pressure (re-paying the index's slab
// allocations) and funnels through per-P locking on the slow path.
var hashIndexPool = par.NewPool[*hashIndex](0, 64)

// getHashIndex returns a cleared index sized for n build tuples.
func getHashIndex(n int) *hashIndex {
	idx, ok := hashIndexPool.Get()
	if !ok {
		idx = new(hashIndex)
	}
	size := 8
	for size < n {
		size <<= 1
	}
	if cap(idx.slots) < size {
		idx.slots = make([]int32, size)
	} else {
		idx.slots = idx.slots[:size]
	}
	for i := range idx.slots {
		idx.slots[i] = -1
	}
	if cap(idx.next) < n {
		idx.next = make([]int32, n)
		idx.hashes = make([]uint64, n)
	} else {
		idx.next = idx.next[:n]
		idx.hashes = idx.hashes[:n]
	}
	idx.mask = uint64(size - 1)
	return idx
}

func putHashIndex(idx *hashIndex) { hashIndexPool.Put(idx) }

func (ix *hashIndex) insert(i int, h uint64) {
	ix.hashes[i] = h
	b := h & ix.mask
	ix.next[i] = ix.slots[b]
	ix.slots[b] = int32(i)
}

func (ix *hashIndex) first(h uint64) int32 { return ix.slots[h&ix.mask] }
