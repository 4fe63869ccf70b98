package flashr

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// Invariant layer for the tracing and metrics subsystem: random DAG
// programs from the equivalence harness run with tracing on, and the
// recorded span trees must be well-formed (trace.Verify), survive a Chrome
// round-trip, and conserve the I/O accounting — bytes and requests summed
// over spans equal the MaterializeStats counters exactly. The concurrent
// tests pin the per-session metric registries to the engine totals and
// guard the torn-snapshot fix against regression.

// collectEquivTrace runs the seeded equivalence program once on a fresh
// session with tracing enabled, returning the recorded trace and the
// MaterializeStats delta of exactly the traced region (data generation
// happens before tracing starts, so trace and delta cover the same passes).
func collectEquivTrace(t testing.TB, seed int64, em bool, fuse FuseLevel, owner string) (*trace.Data, MaterializeStats) {
	t.Helper()
	opts := Options{Workers: 4, PartRows: 256, Fuse: fuse, Owner: owner}
	if em {
		dir := t.(interface{ TempDir() string }).TempDir()
		opts.EM = true
		opts.SSDDirs = []string{filepath.Join(dir, "d0"), filepath.Join(dir, "d1")}
	}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(seed))
	n := int64(300 + rng.Intn(2200))
	p := 1 + rng.Intn(4)
	dataSeed := rng.Int63()
	progSeed := rng.Int63()
	x, err := s.GenerateSeeded(n, p, dataSeed, func(rng *rand.Rand, row []float64) {
		for i := range row {
			row[i] = rng.Float64()*4 - 2
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().StartTrace()
	before := s.TotalMaterializeStats()
	runEquivProgram(t, x, progSeed)
	delta := s.TotalMaterializeStats().Sub(before)
	d := s.Engine().StopTrace()
	if d == nil {
		t.Fatal("StopTrace returned nil while tracing")
	}
	return d, delta
}

// TestTraceWellFormedness checks the span-tree invariants over seeded
// random DAG programs across execution modes and fusion levels: every span
// closed, a single pass root per pass, children properly nested, correct
// owner attribution, and every structural span kind present.
func TestTraceWellFormedness(t *testing.T) {
	for _, em := range []bool{false, true} {
		for _, fuse := range []FuseLevel{FuseCache, FuseNone} {
			for seed := int64(1); seed <= 2; seed++ {
				em, fuse, seed := em, fuse, seed
				t.Run(fmt.Sprintf("em=%t/fuse=%v/seed=%d", em, fuse, seed), func(t *testing.T) {
					t.Parallel()
					owner := fmt.Sprintf("sess-%t-%d", em, seed)
					d, _ := collectEquivTrace(t, seed, em, fuse, owner)
					if err := trace.Verify(d); err != nil {
						t.Fatalf("trace verification failed: %v", err)
					}
					if d.Unclosed != 0 {
						t.Fatalf("%d spans left unclosed", d.Unclosed)
					}
					if len(d.Passes) == 0 {
						t.Fatal("no passes recorded")
					}
					roots := 0
					kinds := map[trace.Kind]int{}
					for _, ev := range d.Events {
						kinds[ev.Kind]++
						if ev.Kind == trace.KindPass {
							roots++
						}
					}
					if roots != len(d.Passes) {
						t.Fatalf("%d pass roots for %d pass metas", roots, len(d.Passes))
					}
					for _, m := range d.Passes {
						if m.Owner != owner {
							t.Fatalf("pass %d attributed to %q, want %q", m.Pass, m.Owner, owner)
						}
					}
					for _, k := range []trace.Kind{
						trace.KindPass, trace.KindAdmit, trace.KindCacheLookup,
						trace.KindPublish, trace.KindSuperTask, trace.KindCompute,
					} {
						if kinds[k] == 0 {
							t.Errorf("no %v spans recorded (kinds: %v)", k, kinds)
						}
					}
				})
			}
		}
	}
}

// TestTraceConservation is the accounting cross-check: bytes and request
// counts summed over the trace's read and write-back spans must equal the
// session's MaterializeStats counters for the same region, exactly.
func TestTraceConservation(t *testing.T) {
	for _, em := range []bool{false, true} {
		em := em
		t.Run(fmt.Sprintf("em=%t", em), func(t *testing.T) {
			t.Parallel()
			d, ms := collectEquivTrace(t, 7, em, FuseCache, "conserve")
			if err := trace.Verify(d); err != nil {
				t.Fatal(err)
			}
			var readBytes, readN, wbBytes int64
			for _, ev := range d.Events {
				switch ev.Kind {
				case trace.KindRead:
					readBytes += ev.Bytes
					readN += ev.N
				case trace.KindWriteBack:
					wbBytes += ev.Bytes
				}
			}
			if readBytes != ms.BytesRead {
				t.Errorf("read spans sum to %d bytes, stats say %d", readBytes, ms.BytesRead)
			}
			if want := ms.PrefetchHits + ms.PrefetchMisses; readN != want {
				t.Errorf("read spans count %d leaf loads, stats say %d", readN, want)
			}
			if wbBytes != ms.BytesWritten {
				t.Errorf("write-back spans sum to %d bytes, stats say %d", wbBytes, ms.BytesWritten)
			}
			if em && (readN == 0 || wbBytes == 0) {
				t.Errorf("EM conservation check is vacuous: readN=%d wbBytes=%d", readN, wbBytes)
			}
		})
	}
}

// TestTraceChromeRoundTripLive exports a real execution trace as Chrome
// JSON, parses it back, and re-verifies the invariants — the same
// self-validation flashr-bench -trace performs before writing its file.
func TestTraceChromeRoundTripLive(t *testing.T) {
	d, _ := collectEquivTrace(t, 11, false, FuseCache, "chrome")
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, d); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Verify(parsed); err != nil {
		t.Fatalf("round-tripped trace fails verification: %v", err)
	}
	if len(parsed.Events) != len(d.Events) {
		t.Fatalf("round trip kept %d events, want %d", len(parsed.Events), len(d.Events))
	}
	if len(parsed.Passes) != len(d.Passes) {
		t.Fatalf("round trip kept %d passes, want %d", len(parsed.Passes), len(d.Passes))
	}
	for i, m := range parsed.Passes {
		if m.Owner != d.Passes[i].Owner {
			t.Fatalf("pass %d owner %q, want %q", m.Pass, m.Owner, d.Passes[i].Owner)
		}
	}
}

// materializeCounterFamilies are the integer counter families whose
// per-session sums must equal the engine totals exactly.
var materializeCounterFamilies = []string{
	"flashr_materialize_passes_total",
	"flashr_materialize_parts_total",
	"flashr_materialize_chunks_total",
	"flashr_materialize_read_bytes_total",
	"flashr_materialize_written_bytes_total",
	"flashr_materialize_prefetch_hits_total",
	"flashr_materialize_prefetch_misses_total",
	"flashr_materialize_write_jobs_total",
	"flashr_materialize_nodes_executed_total",
	"flashr_materialize_cse_unifications_total",
	"flashr_materialize_cache_hits_total",
	"flashr_materialize_cache_misses_total",
}

// TestConcurrentSessionMetricsConservation runs several sessions sharing
// one engine concurrently and asserts the per-session metric registries sum
// counter-for-counter to the engine registry's totals.
func TestConcurrentSessionMetricsConservation(t *testing.T) {
	const nChildren = 3
	parent, err := NewSession(Options{Workers: 4, PartRows: 256, Owner: "parent"})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	sessions := []*Session{parent}
	for i := 0; i < nChildren; i++ {
		cs := parent.Share(fmt.Sprintf("sess-%d", i), 1)
		sessions = append(sessions, cs)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			_, errs[i] = logisticWeights(s, int64(1000+i), 4096, 3, 4)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	engSnap := parent.Engine().Metrics().Snapshot()
	snaps := make([]map[string]float64, len(sessions))
	for i, s := range sessions {
		snaps[i] = s.Metrics().Snapshot()
	}
	for _, fam := range materializeCounterFamilies {
		engVal, ok := engSnap[fam]
		if !ok {
			t.Fatalf("engine registry is missing family %s", fam)
		}
		var sum float64
		for i, s := range sessions {
			key := fmt.Sprintf("%s{owner=%q}", fam, s.Owner())
			v, ok := snaps[i][key]
			if !ok {
				t.Fatalf("session %s registry is missing series %s", s.Owner(), key)
			}
			sum += v
		}
		if sum != engVal {
			t.Errorf("%s: sessions sum to %v, engine total is %v", fam, sum, engVal)
		}
	}
	if engSnap["flashr_materialize_passes_total"] == 0 {
		t.Error("conservation check is vacuous: engine ran no passes")
	}
}

// TestConcurrentMetricsSnapshotCancel is the regression test for the
// torn-snapshot fix: a registry collection caches one MaterializeStats per
// scrape, so a snapshot racing pass completions — including passes aborted
// by a cancelled MaterializeCtx on a sibling session — must never mix
// counters from different fold states. The steady session's passes all have
// identical per-pass deltas, so every consistent snapshot satisfies
// delta(family) == k·Δ(family) for a single integer k across families;
// a partially-flushed snapshot breaks the proportionality.
func TestConcurrentMetricsSnapshotCancel(t *testing.T) {
	steady, err := NewSession(Options{Workers: 4, PartRows: 256, DisableCSE: true, Owner: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	defer steady.Close()
	x, err := steady.GenerateSeeded(4096, 2, 17, func(rng *rand.Rand, row []float64) {
		for i := range row {
			row[i] = rng.Float64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	iteration := func(i int) error {
		_, err := Sum(Mul(x, float64(i+1))).Float()
		return err
	}
	// Calibrate the per-pass delta with two warmup iterations; they must
	// match or the proportionality invariant below is unusable.
	st0 := steady.TotalMaterializeStats()
	if err := iteration(0); err != nil {
		t.Fatal(err)
	}
	st1 := steady.TotalMaterializeStats()
	if err := iteration(1); err != nil {
		t.Fatal(err)
	}
	st2 := steady.TotalMaterializeStats()
	d1, d2 := st1.Sub(st0), st2.Sub(st1)
	type famDelta struct {
		fam string
		d   int64
	}
	perPass := []famDelta{
		{"flashr_materialize_parts_total", d1.Parts},
		{"flashr_materialize_chunks_total", d1.Chunks},
		{"flashr_materialize_nodes_executed_total", d1.NodesExecuted},
	}
	if d1.Passes != 1 || d2.Passes != 1 || d1.Parts != d2.Parts ||
		d1.Chunks != d2.Chunks || d1.NodesExecuted != d2.NodesExecuted {
		t.Fatalf("steady workload is not one identical pass per iteration: %+v vs %+v", d1, d2)
	}

	reg := steady.Metrics()
	key := func(fam string) string { return fam + `{owner="steady"}` }
	base := reg.Snapshot()

	// A sibling session on the same engine hammers cancelled
	// materializations while the snapshotter scrapes.
	cancelly := steady.Share("cancelly", 1)
	cx, err := cancelly.GenerateSeeded(4096, 2, 23, func(rng *rand.Rand, row []float64) {
		for i := range row {
			row[i] = rng.Float64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // canceller
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			y := Sum(Mul(cx, float64(i+100)))
			y.MaterializeCtx(cancelledCtx) // error expected and irrelevant
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // snapshotter
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := reg.Snapshot()
			k := snap[key("flashr_materialize_passes_total")] - base[key("flashr_materialize_passes_total")]
			if k != math.Trunc(k) || k < 0 {
				t.Errorf("snapshot pass delta %v is not a whole pass count", k)
				return
			}
			for _, fd := range perPass {
				got := snap[key(fd.fam)] - base[key(fd.fam)]
				if want := k * float64(fd.d); got != want {
					t.Errorf("torn snapshot: %s advanced by %v over %v passes, want %v",
						fd.fam, got, k, want)
					return
				}
			}
		}
	}()
	for i := 2; i < 80; i++ {
		if err := iteration(i); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestTraceOverheadBudget pins the cost of leaving tracing enabled on a
// bench-smoke-sized workload to under 2% of wall time (plus a small
// absolute floor so laptop noise cannot flake the check). Gated behind
// FLASHR_OVERHEAD_CHECK=1: CI runs it as a dedicated step; it is
// meaningless under -race.
func TestTraceOverheadBudget(t *testing.T) {
	if os.Getenv("FLASHR_OVERHEAD_CHECK") == "" {
		t.Skip("set FLASHR_OVERHEAD_CHECK=1 to run the tracing overhead guard")
	}
	s, err := NewSession(Options{Workers: 4, PartRows: 256, DisableCSE: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Bench-smoke-sized: enough compute per partition that the per-span
	// fixed costs must amortize, as they do in the real benchmarks.
	x, err := s.GenerateSeeded(1<<17, 8, 31, func(rng *rand.Rand, row []float64) {
		for i := range row {
			row[i] = rng.Float64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	workload := func() {
		for i := 0; i < 10; i++ {
			if _, err := Sum(Sigmoid(Mul(x, float64(i+1)))).Float(); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func(traced bool) time.Duration {
		if traced {
			s.Engine().StartTrace()
			defer s.Engine().StopTrace()
		}
		t0 := time.Now()
		workload()
		return time.Since(t0)
	}
	workload() // warm caches and pools before timing
	const rounds = 5
	var off, on []time.Duration
	for i := 0; i < rounds; i++ { // alternate to cancel thermal/GC drift
		off = append(off, measure(false))
		on = append(on, measure(true))
	}
	median := func(ds []time.Duration) time.Duration {
		s := append([]time.Duration(nil), ds...)
		for i := range s { // tiny slice, insertion sort
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[len(s)/2]
	}
	mOff, mOn := median(off), median(on)
	budget := mOff/50 + 10*time.Millisecond // 2% + absolute floor
	if mOn > mOff+budget {
		t.Fatalf("tracing overhead too high: off=%v on=%v (budget %v)", mOff, mOn, budget)
	}
	t.Logf("tracing overhead: off=%v on=%v (budget %v)", mOff, mOn, budget)
}
