package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collectRuns returns a run callback that records every batch it executes and
// answers each request with an OK response carrying the batch attribution.
func collectRuns(mu *sync.Mutex, sizes *[]int) func(*Batcher) func(string, []*Request) {
	return func(b *Batcher) func(string, []*Request) {
		return func(id string, reqs []*Request) {
			mu.Lock()
			*sizes = append(*sizes, len(reqs))
			mu.Unlock()
			for _, r := range reqs {
				b.deliver(r, &Response{BatchID: id, BatchSize: len(reqs)})
			}
		}
	}
}

// newTestBatcher wires a batcher with a fixed flush window to a run callback
// that needs the batcher itself (for deliver), working around the
// construction cycle.
func newTestBatcher(maxBatch int, maxWait time.Duration, depth int, mk func(*Batcher) func(string, []*Request)) *Batcher {
	var b *Batcher
	var once sync.Once
	var run func(string, []*Request)
	b = NewBatcher(maxBatch, func() time.Duration { return maxWait }, depth, func(id string, reqs []*Request) {
		once.Do(func() { run = mk(b) })
		run(id, reqs)
	})
	return b
}

func submitN(t *testing.T, b *Batcher, n int) []<-chan *Response {
	t.Helper()
	chs := make([]<-chan *Response, n)
	for i := range chs {
		ch, err := b.Submit(&Request{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		chs[i] = ch
	}
	return chs
}

func recv(t *testing.T, ch <-chan *Response, within time.Duration) *Response {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(within):
		t.Fatalf("no response within %s", within)
		return nil
	}
}

// A full batch must flush immediately, without waiting out the max-wait
// window, and every member must see the same batch id and size.
func TestBatcherSizeFlush(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := newTestBatcher(3, 10*time.Second, 16, collectRuns(&mu, &sizes))
	defer b.Drain(context.Background())

	start := time.Now()
	chs := submitN(t, b, 3)
	var ids []string
	for _, ch := range chs {
		r := recv(t, ch, 2*time.Second)
		if r.BatchSize != 3 {
			t.Errorf("BatchSize = %d, want 3", r.BatchSize)
		}
		ids = append(ids, r.BatchID)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("full batch took %s; should flush on size, not max-wait", elapsed)
	}
	if ids[0] == "" || ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("batch ids differ across one batch: %v", ids)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Errorf("run saw batches %v, want one batch of 3", sizes)
	}
}

// An under-full batch must flush once the max-wait window since its first
// request expires — neither immediately nor never.
func TestBatcherMaxWaitFlush(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	const wait = 50 * time.Millisecond
	b := newTestBatcher(64, wait, 16, collectRuns(&mu, &sizes))
	defer b.Drain(context.Background())

	start := time.Now()
	ch, err := b.Submit(&Request{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r := recv(t, ch, 5*time.Second)
	elapsed := time.Since(start)
	if r.BatchSize != 1 {
		t.Errorf("BatchSize = %d, want 1", r.BatchSize)
	}
	// The timer arms at the first request; allow generous scheduling slack
	// above, but flushing measurably before the window means the timer is
	// not being honored.
	if elapsed < wait/2 {
		t.Errorf("lone request flushed after %s, before the %s max-wait window", elapsed, wait)
	}
}

// Distinct batches get distinct ids, and requests separated by more than the
// window must not share a batch.
func TestBatcherSeparateWindows(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := newTestBatcher(64, 20*time.Millisecond, 16, collectRuns(&mu, &sizes))
	defer b.Drain(context.Background())

	r1 := recv(t, submitN(t, b, 1)[0], 5*time.Second)
	r2 := recv(t, submitN(t, b, 1)[0], 5*time.Second)
	if r1.BatchID == r2.BatchID {
		t.Errorf("requests a window apart shared batch %q", r1.BatchID)
	}
}

// Each caller gets its own response: one request's error must not leak into
// its batchmates' channels.
func TestBatcherPerCallerDelivery(t *testing.T) {
	errBoom := errors.New("boom")
	b := newTestBatcher(2, 10*time.Second, 16, func(b *Batcher) func(string, []*Request) {
		return func(id string, reqs []*Request) {
			for i, r := range reqs {
				resp := &Response{BatchID: id, BatchSize: len(reqs)}
				if i == 0 {
					resp.Err = errBoom
				} else {
					resp.Items = []ResultItem{{Show: true, Text: fmt.Sprintf("ok-%d", i)}}
				}
				b.deliver(r, resp)
			}
		}
	})
	defer b.Drain(context.Background())

	chs := submitN(t, b, 2)
	r0 := recv(t, chs[0], 2*time.Second)
	r1 := recv(t, chs[1], 2*time.Second)
	if !errors.Is(r0.Err, errBoom) {
		t.Errorf("request 0: err = %v, want boom", r0.Err)
	}
	if r1.Err != nil || len(r1.Items) != 1 {
		t.Errorf("request 1 poisoned by batchmate: err=%v items=%v", r1.Err, r1.Items)
	}
}

// Drain must wait for in-flight batches, answer every accepted request, and
// refuse new submissions with ErrDraining.
func TestBatcherDrainDuringInflight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	b := newTestBatcher(1, time.Millisecond, 16, func(b *Batcher) func(string, []*Request) {
		return func(id string, reqs []*Request) {
			close(started)
			<-release
			for _, r := range reqs {
				b.deliver(r, &Response{BatchID: id, BatchSize: len(reqs)})
			}
		}
	})

	ch := submitN(t, b, 1)[0]
	<-started // the batch is now executing

	drained := make(chan error, 1)
	go func() { drained <- b.Drain(context.Background()) }()
	for {
		b.mu.Lock()
		draining := b.draining
		b.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Submit(&Request{}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit while draining: err = %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a batch still executing", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if r := recv(t, ch, time.Second); r.Err != nil {
		t.Errorf("in-flight request answered with error %v across drain", r.Err)
	}

	// A second Drain is idempotent.
	if err := b.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// Drain must give up with the context's error if in-flight work outlives it.
func TestBatcherDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	b := newTestBatcher(1, time.Millisecond, 16, func(b *Batcher) func(string, []*Request) {
		return func(id string, reqs []*Request) {
			close(started)
			<-release
			for _, r := range reqs {
				b.deliver(r, &Response{BatchID: id})
			}
		}
	})
	ch := submitN(t, b, 1)[0]
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := b.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain with stuck batch: err = %v, want DeadlineExceeded", err)
	}
	close(release)
	recv(t, ch, time.Second)
	if err := b.Drain(context.Background()); err != nil {
		t.Errorf("follow-up Drain: %v", err)
	}
}

// A full accept queue sheds with ErrQueueFull instead of blocking the caller.
// The dispatcher is deliberately not running (the Batcher is hand-built) so
// the queue state is deterministic.
func TestBatcherQueueFullSheds(t *testing.T) {
	b := &Batcher{in: make(chan *Request, 2)}
	if _, err := b.Submit(&Request{}); err != nil {
		t.Fatalf("Submit 0: %v", err)
	}
	if _, err := b.Submit(&Request{}); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	if _, err := b.Submit(&Request{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit beyond queue depth: err = %v, want ErrQueueFull", err)
	}
	// The shed must not have leaked into the accepted-request accounting:
	// draining after answering the two queued requests must not hang on a
	// phantom third.
	go func() {
		for i := 0; i < 2; i++ {
			b.deliver(<-b.in, &Response{})
		}
	}()
	done := make(chan struct{})
	go func() {
		b.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reqWG still counting a shed request")
	}
}
