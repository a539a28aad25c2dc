package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded, sharded free list for hot-path scratch objects,
// shared across concurrent queries. It differs from sync.Pool in two
// ways that matter under sustained multi-query load:
//
//   - retention: sync.Pool is drained by the garbage collector, so a
//     serving workload that allocates (output arrays, reports) sees its
//     scratch pools emptied every GC cycle and re-pays the allocation
//     spikes. A Pool retains its items until displaced, keeping the
//     steady-state scratch paths at zero allocations per operation even
//     with GC pressure from neighboring queries.
//   - typing: items are stored as T, not interface{}, so value types
//     (e.g. slice headers) are pooled without a boxing allocation per
//     Put.
//
// The free list is sharded to roughly one shard per CPU, so 16-way
// concurrent Get/Put traffic does not serialize on one mutex. Put picks
// a shard round-robin; Get starts at the next round-robin shard and
// tries every shard before it reports a miss, so an item Put on any
// shard is found again. Each shard holds at most perShard items;
// excess Puts are dropped for the collector, which bounds the pool's
// footprint. The zero Pool is not usable; construct with NewPool.
type Pool[T any] struct {
	shards []poolShard[T]
	mask   uint32
	ctr    atomic.Uint32
}

type poolShard[T any] struct {
	mu    sync.Mutex
	items []T
	cap   int
	// Pad each shard past a cache line so neighboring shard locks do
	// not false-share.
	_ [24]byte
}

// NewPool returns a pool of the given number of shards, each retaining
// up to perShard items. The shard count is rounded up to a power of two;
// shards <= 0 selects the smallest power of two covering GOMAXPROCS.
// perShard <= 0 selects 32.
func NewPool[T any](shards, perShard int) *Pool[T] {
	if perShard <= 0 {
		perShard = 32
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	p := &Pool[T]{shards: make([]poolShard[T], n), mask: uint32(n - 1)}
	for i := range p.shards {
		p.shards[i].cap = perShard
	}
	return p
}

// Get pops an item, reporting whether one was available. It starts at
// the next round-robin shard and falls through the others in turn, so
// it misses only when every shard is empty. On false the caller
// allocates; the zero T returned alongside is meaningless.
func (p *Pool[T]) Get() (T, bool) {
	start := p.ctr.Add(1)
	for i := uint32(0); i <= p.mask; i++ {
		s := &p.shards[(start+i)&p.mask]
		s.mu.Lock()
		if n := len(s.items); n > 0 {
			v := s.items[n-1]
			var zero T
			s.items[n-1] = zero // release the reference to the collector
			s.items = s.items[:n-1]
			s.mu.Unlock()
			return v, true
		}
		s.mu.Unlock()
	}
	var zero T
	return zero, false
}

// Put offers an item back to one shard; a full shard drops it. The
// caller must not use v afterward.
func (p *Pool[T]) Put(v T) {
	s := &p.shards[p.ctr.Add(1)&p.mask]
	s.mu.Lock()
	if len(s.items) < s.cap {
		s.items = append(s.items, v)
	}
	s.mu.Unlock()
}

// Len reports the pooled items across all shards (for tests).
func (p *Pool[T]) Len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}
