package flashr

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dense"
)

// logisticWeights runs iters gradient steps of logistic regression on an
// n×p uniform design generated from seed, returning the final weights. Each
// iteration forces one fused pass (streaming X·w → sigmoid → residual →
// Gramian gradient sink), the shape of the paper's Figure 7 workloads.
func logisticWeights(s *Session, seed int64, n int64, p, iters int) ([]float64, error) {
	X, err := s.Runif(n, p, -1, 1, seed)
	if err != nil {
		return nil, err
	}
	y, err := s.Runif(n, 1, 0, 1, seed+101)
	if err != nil {
		return nil, err
	}
	w := make([]float64, p)
	for it := 0; it < iters; it++ {
		wm := s.Small(dense.FromSlice(p, 1, append([]float64(nil), w...)))
		pr := Sigmoid(MatMul(X, wm))
		grad, err := CrossProd2(X, Sub(pr, y)).AsDense()
		if err != nil {
			return nil, err
		}
		for j := 0; j < p; j++ {
			w[j] -= 0.05 / float64(n) * grad.Data[j]
		}
	}
	return w, nil
}

// TestConcurrentSessionsBitIdentical is the concurrency stress test: N
// sessions sharing one engine run iterative logistic regression at the same
// time (under -race in CI), and every session's final weights must be
// bit-identical to a serial run of the same seed — concurrent admission,
// fair-queued I/O, and the shared intern table must not perturb results.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	const (
		nSessions = 4
		iters     = 5
		n         = int64(4096)
		p         = 3
	)
	parent, err := NewSession(Options{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()

	results := make([][]float64, nSessions)
	errs := make([]error, nSessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		child := parent.Share(fmt.Sprintf("sess-%d", i), 1)
		wg.Add(1)
		go func(i int, cs *Session) {
			defer wg.Done()
			<-start
			results[i], errs[i] = logisticWeights(cs, int64(1000+i), n, p, iters)
		}(i, child)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	// Serial reference: the same seeds on a fresh single-session engine.
	for i := 0; i < nSessions; i++ {
		ref, err := NewSession(Options{Workers: 4, PartRows: 256})
		if err != nil {
			t.Fatal(err)
		}
		want, err := logisticWeights(ref, int64(1000+i), n, p, iters)
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if results[i][j] != want[j] {
				t.Fatalf("session %d weight %d = %g, serial run got %g (not bit-identical)",
					i, j, results[i][j], want[j])
			}
		}
	}
}

// TestConcurrentStatsAttribution checks exact per-session accounting: with
// every pass on the engine submitted by some session, the per-session
// MaterializeStats totals must sum to the engine-lifetime total, counter by
// counter.
func TestConcurrentStatsAttribution(t *testing.T) {
	const nSessions = 3
	parent, err := NewSession(Options{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()

	children := make([]*Session, nSessions)
	errs := make([]error, nSessions)
	var wg sync.WaitGroup
	for i := range children {
		children[i] = parent.Share(fmt.Sprintf("c%d", i), 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = logisticWeights(children[i], int64(50+i), 3000, 2, 4)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	var sum MaterializeStats
	for _, c := range children {
		sum.Add(c.TotalMaterializeStats())
	}
	eng := parent.Engine().TotalMaterializeStats()
	type cmp struct {
		name     string
		ses, eng int64
	}
	for _, c := range []cmp{
		{"Passes", sum.Passes, eng.Passes},
		{"Parts", sum.Parts, eng.Parts},
		{"Chunks", sum.Chunks, eng.Chunks},
		{"BytesRead", sum.BytesRead, eng.BytesRead},
		{"BytesWritten", sum.BytesWritten, eng.BytesWritten},
		{"WriteJobs", sum.WriteJobs, eng.WriteJobs},
		{"NodesExecuted", sum.NodesExecuted, eng.NodesExecuted},
		{"CacheHits", sum.CacheHits, eng.CacheHits},
		{"CacheMisses", sum.CacheMisses, eng.CacheMisses},
	} {
		if c.ses != c.eng {
			t.Errorf("%s: per-session sum %d != engine total %d", c.name, c.ses, c.eng)
		}
	}
	if sum.Passes == 0 || sum.Parts == 0 {
		t.Fatalf("workload left no trace in the stats (passes=%d parts=%d)", sum.Passes, sum.Parts)
	}
}

// TestConcurrentFairness runs equal-weight sessions with identical
// read-bound workloads against a bandwidth-throttled SSD array and asserts
// the fair queueing keeps completion times within a 3× envelope — no
// session starves while another streams.
func TestConcurrentFairness(t *testing.T) {
	const (
		nSessions = 4
		iters     = 6
		n         = int64(1 << 15)
		p         = 4
	)
	dirs := make([]string, 4)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("d%d", i))
	}
	// DisableCSE so every iteration re-reads its matrix from the array
	// instead of serving the fold from the result cache.
	parent, err := NewSession(Options{
		Workers: 4, PartRows: 1024, EM: true, SSDDirs: dirs,
		ReadMBps: 48, DisableCSE: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()

	type sess struct {
		s *Session
		x *FM
	}
	sessions := make([]sess, nSessions)
	for i := range sessions {
		cs := parent.Share(fmt.Sprintf("fair-%d", i), 1)
		x, err := cs.Runif(n, p, 0, 1, int64(300+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := x.MaterializeCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess{s: cs, x: x}
	}

	durations := make([]time.Duration, nSessions)
	errs := make([]error, nSessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			for it := 0; it < iters; it++ {
				if _, err := Sum(sessions[i].x).Float(); err != nil {
					errs[i] = err
					return
				}
			}
			durations[i] = time.Since(t0)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	minD, maxD := durations[0], durations[0]
	for _, d := range durations[1:] {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	t.Logf("per-session durations: %v", durations)
	if minD <= 0 {
		t.Fatalf("zero-duration session (durations %v)", durations)
	}
	if ratio := float64(maxD) / float64(minD); ratio > 3 {
		t.Fatalf("completion ratio %.2f exceeds fairness bound 3 (durations %v)", ratio, durations)
	}
	// Every session must have moved its own bytes: per-pass attribution is
	// nonzero and the engine total matches the per-session sum.
	var sum int64
	for i := range sessions {
		br := sessions[i].s.TotalMaterializeStats().BytesRead
		if br == 0 {
			t.Fatalf("session %d read no bytes", i)
		}
		sum += br
	}
	if eng := parent.Engine().TotalMaterializeStats().BytesRead; sum != eng {
		t.Fatalf("per-session BytesRead sum %d != engine total %d", sum, eng)
	}
}
