package shufflejoin

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildTestPair creates one joinable array pair with unique coordinates
// (linear join output) for the serving tests.
func buildTestPair(t *testing.T, db *DB, a, b string, cells int) {
	t.Helper()
	domain := int64(cells) * 2
	chunk := domain / 8
	if chunk < 1 {
		chunk = 1
	}
	for i, name := range []string{a, b} {
		attr := "v"
		if i == 1 {
			attr = "w"
		}
		ar, err := db.CreateArray(fmt.Sprintf("%s<%s:int>[i=1,%d,%d]", name, attr, domain, chunk))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < cells; j++ {
			// Both sides share even coordinates; side b also fills odd
			// ones, so the join matches exactly the even overlap.
			coord := int64(j)*2 + 1 + int64(i)
			if coord > domain {
				coord = int64(j) + 1
			}
			if err := ar.Insert([]int64{coord}, int64(j*7+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// serveFingerprint canonicalizes everything a query's result guarantees
// to be scheduling-independent: the chosen plan, join statistics,
// modeled phase times, and every output cell in deterministic order.
// Real wall-clock quantities (PlanSeconds, TotalSeconds) and
// interleaving-dependent provenance (PlanSource: a concurrent duplicate
// may be "cached" where the serial run planned) are deliberately
// excluded.
func serveFingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan=%s algo=%s matches=%d moved=%d clamped=%d peak=%d interned=%d\n",
		r.Plan, r.Algorithm, r.Matches, r.CellsMoved, r.ClampedCells, r.PeakBatchBytes, r.InternedStrings)
	fmt.Fprintf(&b, "align=%.12g compare=%.12g skew=%.12g straggler=%d lockwait=%.12g schema=%s\n",
		r.AlignSeconds, r.CompareSeconds, r.Skew, r.StragglerNode, r.LockWaitSeconds, r.OutputSchema)
	r.Scan(func(c Cell) bool {
		fmt.Fprintf(&b, "%v=%v\n", c.Coords, c.Values)
		return true
	})
	return b.String()
}

// TestConcurrentQueriesBitIdentical is the serving determinism stress
// test: one DB driven by 16 goroutines through a contended scheduler
// (fewer slots than clients, a small memory pool, mixed classes, a
// shared plan cache) must produce results bit-identical to the same
// queries run serially without any scheduler. Run under -race this also
// sweeps the engine's shared state (catalog, pools, cache, metrics) for
// data races.
func TestConcurrentQueriesBitIdentical(t *testing.T) {
	db, err := Open(4)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "CA", "CB", 600)
	buildTestPair(t, db, "CC", "CD", 1400)
	queries := []string{
		"SELECT CA.v, CB.w FROM CA, CB WHERE CA.i = CB.i",
		"SELECT CC.v, CD.w FROM CC, CD WHERE CC.i = CD.i",
	}

	// Serial references, no scheduler attached.
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = serveFingerprint(res)
	}

	s := db.NewScheduler(SchedulerConfig{
		MaxQueries:      4,
		AlignSlots:      2,
		CompareSlots:    2,
		MemoryPoolBytes: 64 << 20,
	})
	cache := NewPlanCache()
	classes := []string{"interactive", "scan"}

	const goroutines = 16
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				qi := (g + k) % len(queries)
				res, err := db.Query(queries[qi],
					WithScheduler(s),
					WithQueryClass(classes[(g+k)%2]),
					WithPlanCache(cache),
				)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", g, k, err)
					return
				}
				if got := serveFingerprint(res); got != want[qi] {
					errs <- fmt.Errorf("goroutine %d query %d: result diverges from serial run:\n got: %.200s\nwant: %.200s",
						g, k, got, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := s.Snapshot()
	if snap.Inflight != 0 || snap.Interactive.Queued != 0 || snap.Scan.Queued != 0 {
		t.Errorf("scheduler not drained: %+v", snap)
	}
	if got := snap.Interactive.Admitted + snap.Scan.Admitted; got != goroutines*perG {
		t.Errorf("admitted %d queries, want %d", got, goroutines*perG)
	}
	if snap.MemReservedBytes != 0 {
		t.Errorf("memory pool not drained: %d bytes still reserved", snap.MemReservedBytes)
	}
	if snap.AlignSlotsFree != snap.AlignSlots || snap.CompareSlotsFree != snap.CompareSlots {
		t.Errorf("stage slots leaked: %+v", snap)
	}
}

// TestInsertDuringConcurrentSeal pins the array-handle lock: a query
// seals every pending array, so an array being filled while other
// goroutines query can be sealed mid-fill. Insert must then fail with
// the "is sealed" error instead of writing into a chunk map the seal
// is sorting. Run under -race this catches the unsynchronized version.
func TestInsertDuringConcurrentSeal(t *testing.T) {
	db, err := Open(4)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "SA", "SB", 200)
	const q = "SELECT SA.v, SB.w FROM SA, SB WHERE SA.i = SB.i"
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if res.Matches != want.Matches {
					errs <- fmt.Errorf("matches = %d, want %d", res.Matches, want.Matches)
					return
				}
			}
		}()
	}

	var sealed int
	for n := 0; n < 20; n++ {
		ar, err := db.CreateArray(fmt.Sprintf("N%d<v:int>[i=1,4000,100]", n))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 2000; i++ {
			if err := ar.Insert([]int64{i * 2}, i); err != nil {
				if !strings.Contains(err.Error(), "is sealed") {
					t.Fatalf("array N%d cell %d: %v", n, i, err)
				}
				sealed++
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d of 20 arrays were sealed mid-fill", sealed)
}

// TestServeClosedLoop smoke-tests DB.Serve: a mixed workload completes,
// reports per-class latency, and leaves the scheduler drained.
func TestServeClosedLoop(t *testing.T) {
	db, err := Open(3)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "SVA", "SVB", 500)
	q := "SELECT SVA.v, SVB.w FROM SVA, SVB WHERE SVA.i = SVB.i"

	jobs := make([]ServeJob, 40)
	for i := range jobs {
		class := "interactive"
		if i%4 == 0 {
			class = "scan"
		}
		jobs[i] = ServeJob{Query: q, Class: class}
	}
	s := db.NewScheduler(SchedulerConfig{MaxQueries: 4, MemoryPoolBytes: 32 << 20})
	rep, err := db.Serve(jobs, ServeOptions{Concurrency: 8, Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != int64(len(jobs)) || rep.Failed != 0 {
		t.Fatalf("completed %d / failed %d of %d jobs: %v", rep.Completed, rep.Failed, len(jobs), rep.Errors)
	}
	if rep.QPS <= 0 || rep.Wall <= 0 {
		t.Errorf("no throughput reported: qps=%f wall=%v", rep.QPS, rep.Wall)
	}
	if rep.Latency.Count != int64(len(jobs)) || rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("latency summary inconsistent: %+v", rep.Latency)
	}
	ic, sc := rep.PerClass["interactive"], rep.PerClass["scan"]
	if ic.Count != 30 || sc.Count != 10 {
		t.Errorf("per-class counts = %d interactive / %d scan, want 30/10", ic.Count, sc.Count)
	}
	if rep.Scheduler.Inflight != 0 || rep.Scheduler.MemReservedBytes != 0 {
		t.Errorf("scheduler not drained after Serve: %+v", rep.Scheduler)
	}

	if _, err := db.Serve(nil, ServeOptions{}); err == nil {
		t.Error("Serve with no jobs should fail")
	}
	if _, err := db.Serve([]ServeJob{{Query: q, Class: "bogus"}}, ServeOptions{Scheduler: s}); err == nil {
		t.Error("Serve with a bad class should fail up front")
	}
}

// TestQueryTimeoutAndCancel pins the per-query deadline and context
// paths: both surface the standard context errors, and a timed-out
// query releases its scheduler resources.
func TestQueryTimeoutAndCancel(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "TA", "TB", 1200)
	q := "SELECT TA.v, TB.w FROM TA, TB WHERE TA.i = TB.i"

	if _, err := db.Query(q, WithQueryTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error = %v, want DeadlineExceeded", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(q, WithQueryContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled-context error = %v, want Canceled", err)
	}

	s := db.NewScheduler(SchedulerConfig{MaxQueries: 2, MemoryPoolBytes: 8 << 20})
	if _, err := db.Query(q, WithScheduler(s), WithQueryTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("scheduled timeout error = %v, want DeadlineExceeded", err)
	}
	snap := s.Snapshot()
	if snap.Inflight != 0 || snap.MemReservedBytes != 0 {
		t.Errorf("timed-out query leaked scheduler resources: %+v", snap)
	}

	// A generous timeout must not perturb the result.
	plain, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := db.Query(q, WithQueryTimeout(time.Minute), WithScheduler(s))
	if err != nil {
		t.Fatal(err)
	}
	if serveFingerprint(plain) != serveFingerprint(timed) {
		t.Error("query under timeout+scheduler diverges from plain run")
	}
}

// TestQueryOptionValidation covers the new options' error paths.
func TestQueryOptionValidation(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]QueryOption{
		"nil scheduler":    WithScheduler(nil),
		"bad class":        WithQueryClass("batch"),
		"zero timeout":     WithQueryTimeout(0),
		"negative timeout": WithQueryTimeout(-time.Second),
		"nil context":      WithQueryContext(nil),
	} {
		if _, err := db.Query("SELECT A.v FROM A, B WHERE A.i = B.i", opt); err == nil {
			t.Errorf("%s: expected an option error", name)
		}
	}
}
