package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// opResult is what one closed-loop operation reports back to the loop.
type opResult struct {
	class string
	lat   time.Duration // the operation's own latency, excluding output checks
}

// loopResult is the outcome of one measured region.
type loopResult struct {
	byClass   map[string][]time.Duration
	all       []time.Duration
	attempted int64
	failed    int64
	errs      []string
	wall      time.Duration
	rt        rtDelta
}

// closedLoop runs clients closed-loop clients for dur: each calls op with
// its client index, waits for it, and calls it again until the deadline.
// Operations in flight at the deadline complete and count. Runtime
// metrics are sampled around the whole region.
func closedLoop(clients int, dur time.Duration, op func(client int) (opResult, error)) loopResult {
	res := loopResult{byClass: make(map[string][]time.Duration)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	rs := startRuntimeSampler()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, err := op(c)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				} else {
					res.byClass[r.class] = append(res.byClass[r.class], r.lat)
					res.all = append(res.all, r.lat)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.rt = rs.stop()
	return res
}

// qps is completed operations per second of region wall time.
func (r loopResult) qps() float64 {
	return float64(len(r.all)) / r.wall.Seconds()
}

// latStats digests a latency sample: the median and the tail, where the
// tail is the highest percentile with at least 10 samples beyond it.
type latStats struct {
	n       int
	p50ms   float64
	tailms  float64
	tailPct float64
}

func summarize(ds []time.Duration) latStats {
	if len(ds) == 0 {
		return latStats{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	n := len(s)
	st := latStats{n: n, p50ms: ms(s[n/2])}
	if n%2 == 0 {
		st.p50ms = (ms(s[n/2-1]) + ms(s[n/2])) / 2
	}
	if n > 10 {
		st.tailms = ms(s[n-11])
		st.tailPct = 100 * float64(n-10) / float64(n)
	} else {
		st.tailms = ms(s[n-1])
		st.tailPct = 100
	}
	return st
}

func (st latStats) String() string {
	return fmt.Sprintf("p50 %.3f ms, p%.2f %.3f ms (n=%d, 10 beyond)", st.p50ms, st.tailPct, st.tailms, st.n)
}

// rtDelta is the change in runtime/metrics counters over a region, plus
// the peak live-heap size sampled during it.
type rtDelta struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of GC CPU
	totalCPU   float64 // seconds of CPU available to the process (GOMAXPROCS × wall)
	heapPeak   uint64
}

func (d rtDelta) gcCPUFrac() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// rtSampler polls the heap size while a region runs.
type rtSampler struct {
	before []metrics.Sample
	stopc  chan struct{}
	done   chan struct{}
	peak   uint64
}

func startRuntimeSampler() *rtSampler {
	runtime.GC()
	rs := &rtSampler{before: readRuntime(), stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		probe := []metrics.Sample{{Name: rtNames[4]}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(probe)
			if v := probe[0].Value.Uint64(); v > rs.peak {
				rs.peak = v
			}
			select {
			case <-rs.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

func (rs *rtSampler) stop() rtDelta {
	close(rs.stopc)
	<-rs.done
	after := readRuntime()
	b := rs.before
	return rtDelta{
		allocBytes: after[0].Value.Uint64() - b[0].Value.Uint64(),
		gcCycles:   after[1].Value.Uint64() - b[1].Value.Uint64(),
		gcCPU:      after[2].Value.Float64() - b[2].Value.Float64(),
		totalCPU:   after[3].Value.Float64() - b[3].Value.Float64(),
		heapPeak:   rs.peak,
	}
}
