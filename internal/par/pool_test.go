package par

import (
	"runtime"
	"sync"
	"testing"
)

// The tests force several shards so a shard-pick bug shows on any
// machine, whatever its GOMAXPROCS.
const testShards = 4

func TestPoolGetPut(t *testing.T) {
	p := NewPool[[]int](testShards, 4)
	if _, ok := p.Get(); ok {
		t.Fatal("empty pool returned an item")
	}
	p.Put(make([]int, 0, 8))
	v, ok := p.Get()
	if !ok || cap(v) != 8 {
		t.Fatalf("Get = cap %d, %v; want cap 8, true", cap(v), ok)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", p.Len())
	}
}

// TestPoolAlternatingGetPut is the regression test for Get and Put
// picking different shards: one goroutine recycling one item must hit
// the pool every time, at every shard count.
func TestPoolAlternatingGetPut(t *testing.T) {
	for _, shards := range []int{1, 2, 3, testShards, 16} {
		p := NewPool[*int](shards, 4)
		x := new(int)
		p.Put(x)
		for i := 0; i < 100; i++ {
			v, ok := p.Get()
			if !ok || v != x {
				t.Fatalf("shards=%d: Get #%d = %p, %v; want the pooled item", shards, i, v, ok)
			}
			p.Put(v)
		}
	}
}

func TestPoolShardCount(t *testing.T) {
	for _, c := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {9, 16}} {
		if got := len(NewPool[int](c.in, 1).shards); got != c.want {
			t.Errorf("NewPool(%d) has %d shards, want %d", c.in, got, c.want)
		}
	}
	if got := len(NewPool[int](0, 1).shards); got < runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(0) has %d shards, fewer than GOMAXPROCS", got)
	}
}

func TestPoolBounded(t *testing.T) {
	p := NewPool[int](testShards, 2)
	// Overfill far past every shard's cap; the retained total must not
	// exceed shards × perShard.
	for i := 0; i < 10000; i++ {
		p.Put(i)
	}
	if n, max := p.Len(), 2*len(p.shards); n > max {
		t.Fatalf("pool retains %d items, cap is %d", n, max)
	}
}

func TestPoolZeroesFreedSlots(t *testing.T) {
	p := NewPool[*int](testShards, 4)
	x := new(int)
	p.Put(x)
	if _, ok := p.Get(); !ok {
		t.Fatal("lost the pooled item")
	}
	// The slot the item occupied must no longer reference it.
	for i := range p.shards {
		s := &p.shards[i]
		for _, v := range s.items[:cap(s.items)] {
			if v == x {
				t.Fatal("freed slot still references the item")
			}
		}
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool[[]byte](testShards, 16)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b, ok := p.Get()
				if !ok {
					b = make([]byte, 0, 64)
				}
				b = append(b[:0], 1, 2, 3)
				p.Put(b)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkPoolContended measures Get/Put round-trips under full
// parallelism — the shape of 16-way concurrent query serving hitting the
// shared scratch pools.
func BenchmarkPoolContended(b *testing.B) {
	p := NewPool[[]byte](0, 64)
	for i := 0; i < 256; i++ {
		p.Put(make([]byte, 0, 1024))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v, ok := p.Get()
			if !ok {
				v = make([]byte, 0, 1024)
			}
			p.Put(v)
		}
	})
}
