package safs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// WriteBack is a bounded write-behind queue: the execution engine hands a
// finished output partition to the queue and immediately moves on to the
// next partition's compute, closing the write half of the paper's
// I/O/compute overlap (§3.3 — the read half is the prefetcher). Ownership
// of the buffer transfers to the queue until the job's release callback
// runs, so the scheduler never mutates a buffer a writer still holds.
//
// Depth bounds the number of in-flight writes; when the bound is hit,
// Enqueue blocks and the blocked time is recorded as write-stall, which
// shrinks toward zero when the overlap works.
//
// Write-behind jobs funnel through the array's per-drive workers like any
// other write, so stripe checksums, injected faults, and the retry/backoff
// policy all apply; no separate integrity handling lives here.
type WriteBack struct {
	// lanes holds the free lane tokens 0..depth-1. A job receives a token in
	// Enqueue and its goroutine returns it on completion, so the token bounds
	// in-flight writes AND grants exclusive ownership of the lane's trace
	// buffer — the channel round-trip is the happens-before edge between
	// successive jobs on one lane.
	lanes chan int
	// bufs, when tracing, is one span buffer per lane (indexed by token).
	bufs  []*trace.Buf
	wg    sync.WaitGroup
	onErr func(error)

	stallNs atomic.Int64
	writeNs atomic.Int64
	bytes   atomic.Int64
	jobs    atomic.Int64

	errMu sync.Mutex
	err   error
}

// WriteBackStats is a snapshot of queue activity.
type WriteBackStats struct {
	// Stall is the cumulative time producers spent blocked on the depth
	// bound in Enqueue.
	Stall time.Duration
	// WriteTime is the cumulative time spent inside write jobs (summed
	// across writers, so it can exceed wall time).
	WriteTime time.Duration
	// Bytes and Jobs count enqueued work.
	Bytes int64
	Jobs  int64
}

// NewWriteBack builds a queue allowing depth concurrent in-flight writes; it
// panics if depth < 1. onErr, if non-nil, is invoked once with the first
// write error as soon as it happens, letting the caller abort a pass early;
// the same error is returned again by Drain.
func NewWriteBack(depth int, onErr func(error)) *WriteBack {
	if depth < 1 {
		panic(fmt.Sprintf("safs: write-behind depth %d < 1", depth))
	}
	wb := &WriteBack{lanes: make(chan int, depth), onErr: onErr}
	for i := 0; i < depth; i++ {
		wb.lanes <- i
	}
	return wb
}

// Lanes returns the queue depth (the number of write lanes).
func (wb *WriteBack) Lanes() int { return cap(wb.lanes) }

// SetTraceBufs attaches one span buffer per lane (len must equal Lanes;
// entries may be nil). Call before the first Enqueue; each async job then
// records a write-back span on its lane's buffer.
func (wb *WriteBack) SetTraceBufs(bufs []*trace.Buf) {
	if len(bufs) != wb.Lanes() {
		panic("safs: SetTraceBufs length does not match lane count")
	}
	wb.bufs = bufs
}

// Enqueue schedules one write job of nbytes. write performs the actual
// store/file write; release is called exactly once when the job finishes
// (success or failure) and returns buffer ownership to the caller. Enqueue
// blocks while the queue is at depth; it never blocks indefinitely because
// in-flight writers always complete.
func (wb *WriteBack) Enqueue(nbytes int, write func() error, release func()) {
	t0 := time.Now()
	lane := <-wb.lanes
	if d := time.Since(t0); d > 0 {
		wb.stallNs.Add(d.Nanoseconds())
	}
	wb.jobs.Add(1)
	wb.bytes.Add(int64(nbytes))
	var buf *trace.Buf
	if wb.bufs != nil {
		buf = wb.bufs[lane]
	}
	wb.wg.Add(1)
	go func() {
		defer wb.wg.Done()
		defer func() { wb.lanes <- lane }()
		sp := buf.Begin(trace.KindWriteBack, int64(lane))
		sp.Bytes = int64(nbytes)
		sp.N = 1
		w0 := time.Now()
		err := write()
		wb.writeNs.Add(time.Since(w0).Nanoseconds())
		buf.End(sp)
		if release != nil {
			release()
		}
		if err != nil {
			wb.fail(err)
		}
	}()
}

func (wb *WriteBack) fail(err error) {
	wb.errMu.Lock()
	first := wb.err == nil
	if first {
		wb.err = err
	}
	wb.errMu.Unlock()
	if first && wb.onErr != nil {
		wb.onErr(err)
	}
}

// Err returns the first write failure observed so far, or nil.
func (wb *WriteBack) Err() error {
	wb.errMu.Lock()
	defer wb.errMu.Unlock()
	return wb.err
}

// Drain is the barrier at the end of a pass: it waits for every in-flight
// write to finish and returns the first error any of them hit. The queue
// may be reused after Drain returns.
func (wb *WriteBack) Drain() error {
	wb.wg.Wait()
	return wb.Err()
}

// Stats snapshots the queue counters.
func (wb *WriteBack) Stats() WriteBackStats {
	return WriteBackStats{
		Stall:     time.Duration(wb.stallNs.Load()),
		WriteTime: time.Duration(wb.writeNs.Load()),
		Bytes:     wb.bytes.Load(),
		Jobs:      wb.jobs.Load(),
	}
}
