// Package serve turns a shared FlashR engine into a multi-tenant network
// service on one HTTP surface, /v2: clients create sessions, submit
// R-flavored programs, get scalars back as text and matrices back as
// result handles, and fetch handle rows by range. The core is a request
// batcher that coalesces requests arriving within a rate-adaptive flush
// window into shared materialization passes; each tenant maps to one
// shared-engine flashr.Session whose PassOptions{Owner, Weight} put the
// engine's pass-admission arbiter and per-owner fair I/O queueing to work as
// the per-tenant QoS layer.
package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	flashr "repro"
)

// Shedding and lifecycle errors surfaced to the HTTP layer.
var (
	// ErrQueueFull is returned by Submit when the bounded accept queue is
	// at capacity; the HTTP layer sheds the request with a 429.
	ErrQueueFull = errors.New("serve: accept queue full")
	// ErrDraining is returned by Submit once Drain has begun; accepted
	// requests still complete but new ones are refused with a 503.
	ErrDraining = errors.New("serve: server draining")
)

// Request is one client program queued for batched execution.
type Request struct {
	// Sess is the serving session the program runs in.
	Sess *Session
	// Program is the raw program text, one statement per line.
	Program string

	enqueued time.Time
	resp     chan *Response
}

// ResultItem is one statement's result: either rendered text (scalars,
// strings, 1×1 reductions) or a matrix to be pinned behind a result handle
// by the HTTP layer.
type ResultItem struct {
	// Show reports whether the statement prints at all (assignments do not).
	Show bool
	// Text is the rendered value when Mat is nil.
	Text string
	// Mat is the materialized matrix result (Length > 1) to pin.
	Mat *flashr.FM
}

// Response is the per-caller answer delivered on the request's private
// channel, with the timing breakdown of where the request spent its life.
type Response struct {
	// Items holds one result per program statement (a zero item for
	// statements with no printable value). Nil when Err is set.
	Items []ResultItem
	// Err is the request-level failure (parse/eval/materialize error for
	// this caller only; batchmates are unaffected).
	Err error

	// BatchID identifies the batch the request rode in; BatchSize is how
	// many requests shared it — the batch attribution clients and tests
	// use to confirm coalescing.
	BatchID   string
	BatchSize int
	// QueueWait is time spent in the accept queue and batching window;
	// Exec is time inside batch execution (eval + shared flush + render).
	QueueWait time.Duration
	Exec      time.Duration
	// Flush is the tenant session's materialization record across the
	// batch's shared flush: the passes and bytes of every request of the
	// tenant in the batch, not of this request alone.
	Flush flashr.MaterializeStats
}

// Batcher coalesces requests into batches bounded by size and by a flush
// window, in the style of channel-based write batchers: submitters enqueue
// on a bounded channel and block on a private response channel; a dispatcher
// goroutine accumulates a batch until it is full or the window since the
// batch's first request expires, then hands it to run on a fresh goroutine,
// so slow batches never stall the collection of the next one.
type Batcher struct {
	in       chan *Request
	maxBatch int
	// window is consulted as each batch's first request arrives and sizes
	// that batch's flush window.
	window func() time.Duration
	run    func(batchID string, reqs []*Request)

	seq      atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	execWG   sync.WaitGroup
	reqWG    sync.WaitGroup

	mu       sync.Mutex
	draining bool
}

// NewBatcher builds and starts a batcher. run is invoked with each batch
// (size ≥ 1) and must deliver a Response to every request via its deliver
// method. maxBatch bounds batch size, window is called at the start of each
// batch and bounds how long its first request waits for company, and
// queueDepth bounds the accept queue beyond which Submit sheds.
func NewBatcher(maxBatch int, window func() time.Duration, queueDepth int, run func(batchID string, reqs []*Request)) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueDepth < 1 {
		queueDepth = 256
	}
	b := &Batcher{
		in:       make(chan *Request, queueDepth),
		maxBatch: maxBatch,
		window:   window,
		run:      run,
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go b.loop()
	return b
}

// Submit enqueues a request and returns its private response channel. It
// never blocks: a full accept queue sheds with ErrQueueFull, and a draining
// batcher refuses with ErrDraining.
func (b *Batcher) Submit(r *Request) (<-chan *Response, error) {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return nil, ErrDraining
	}
	// Count the request as accepted before releasing the lock so Drain,
	// which flips draining under the same lock, always waits for it.
	b.reqWG.Add(1)
	b.mu.Unlock()

	r.resp = make(chan *Response, 1)
	r.enqueued = time.Now()
	select {
	case b.in <- r:
		return r.resp, nil
	default:
		b.reqWG.Done()
		return nil, ErrQueueFull
	}
}

// isDraining reports whether Drain has begun.
func (b *Batcher) isDraining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// deliver completes one request. Exactly one deliver per accepted request.
func (b *Batcher) deliver(r *Request, resp *Response) {
	r.resp <- resp
	b.reqWG.Done()
}

// loop is the dispatcher: collect a batch, hand it off, repeat.
func (b *Batcher) loop() {
	defer close(b.loopDone)
	for {
		var first *Request
		select {
		case first = <-b.in:
		case <-b.stop:
			return
		}
		batch := append(make([]*Request, 0, b.maxBatch), first)
		timer := time.NewTimer(b.window())
	collect:
		for len(batch) < b.maxBatch {
			select {
			case r := <-b.in:
				batch = append(batch, r)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		id := batchID(b.seq.Add(1))
		b.execWG.Add(1)
		go func(id string, batch []*Request) {
			defer b.execWG.Done()
			b.run(id, batch)
		}(id, batch)
	}
}

// Drain stops accepting new requests, waits for every accepted request to be
// answered (bounded by ctx), then stops the dispatcher. It is idempotent and
// returns ctx.Err() if the in-flight work outlives the context.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.reqWG.Wait()
		b.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	b.stopOnce.Do(func() { close(b.stop) })
	select {
	case <-b.loopDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// batchID renders a batch sequence number as a stable label.
func batchID(n int64) string { return "b" + strconv.FormatInt(n, 10) }
