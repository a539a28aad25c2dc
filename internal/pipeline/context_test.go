package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/sched"
)

// TestPreCanceledContext pins the stage-boundary check: an already-
// canceled context fails the query before any stage runs, reporting
// context.Canceled via errors.Is.
func TestPreCanceledContext(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	c := newCluster(t, 4, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeadlineExceeded pins the timeout path: an expired deadline
// surfaces as context.DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	c := newCluster(t, 4, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestContextIgnoredWhenDone pins that a live context changes nothing: a
// query with a background context and one with no context produce
// identical results.
func TestContextIgnoredWhenDone(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	run := func(opt pipeline.Options) *pipeline.Report {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(pipeline.Options{})
	ctxed := run(pipeline.Options{Ctx: context.Background()})
	reportsEquivalent(t, "ctx-vs-none", ctxed, plain)
}

// goldenGated pins the digest (see digest) of TestGatedEquivalence's
// query, gated or not.
const goldenGated = "21a80a554741dfcaee2dd1b4"

// TestGatedEquivalence is the scheduler's determinism boundary: a query
// executed through a sched.Ticket gate (shared sim pool, compare slots,
// memory reservation) produces bit-identical results to an ungated run,
// and both match the pinned digest. The barrier= subtests date from when
// two compare paths existed; both now run the one compare path.
func TestGatedEquivalence(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	s := sched.New(sched.Config{MaxQueries: 2, AlignSlots: 1, CompareSlots: 1, PoolBytes: 1 << 30})
	for _, barrier := range []bool{false, true} {
		t.Run(fmt.Sprintf("barrier=%v", barrier), func(t *testing.T) {
			run := func(gate pipeline.Gate) *pipeline.Report {
				c := newCluster(t, 4, a.Clone(), b.Clone())
				rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
					Ctx:  context.Background(),
					Gate: gate,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			plain := run(nil)
			tk, err := s.Admit(context.Background(), sched.Interactive, 0, "gated")
			if err != nil {
				t.Fatal(err)
			}
			gated := run(tk)
			tk.Done()
			reportsEquivalent(t, "gated-vs-plain", gated, plain)
			checkGolden(t, "plain", digest(plain, ""), goldenGated)
			checkGolden(t, "gated", digest(gated, ""), goldenGated)
			snap := s.Snapshot()
			if snap.AlignSlotsFree != 1 || snap.CompareSlotsFree != 1 {
				t.Fatalf("slots leaked: %+v", snap)
			}
		})
	}
}

// TestPlanCacheSingleflight pins the satellite: K concurrent misses on
// one signature plan once — one miss, K-1 suppressed hits sharing the
// entry — and every query returns identical results.
func TestPlanCacheSingleflight(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	cache := plancache.New()

	const K = 8
	reps := make([]*pipeline.Report, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newCluster(t, 4, a.Clone(), b.Clone())
			reps[i], errs[i] = pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
				Cache: cache,
				Ctx:   context.Background(),
			})
		}(i)
	}
	wg.Wait()

	var missed, shared int
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		switch reps[i].CacheOutcome {
		case "miss":
			missed++
		case "suppressed", "hit":
			shared++
		default:
			t.Fatalf("query %d: CacheOutcome = %q", i, reps[i].CacheOutcome)
		}
		reportsEquivalent(t, fmt.Sprintf("query %d vs 0", i), reps[i], reps[0])
	}
	if missed != 1 || shared != K-1 {
		t.Fatalf("outcomes: %d misses, %d shared, want 1/%d", missed, shared, K-1)
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats.Misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != K-1 {
		t.Fatalf("stats.Hits = %d, want %d", st.Hits, K-1)
	}
	// How many of the K-1 hits waited on the planner (Suppressed) vs
	// arrived after Store is interleaving-dependent; the deterministic
	// suppression contract is pinned in plancache's own unit test.
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
}
