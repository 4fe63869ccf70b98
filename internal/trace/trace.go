// Package trace is the execution-tracing and metrics subsystem of the
// FlashR engine: structured spans over the materialization path (pass →
// super-task → read/compute/write-back) and a registry of counters, gauges,
// and histograms exportable in Prometheus text format.
//
// The design is dictated by the execution model it instruments. A
// materialization pass is one orchestrating goroutine plus a set of worker
// goroutines and write-behind lanes, each a strictly sequential execution
// lane. Every lane records its spans into its own Buf — single-owner, append
// only, no locks, no interface boxing — and the pass stitches the buffers
// into the Tracer once, after the lane quiesces. Disabled tracing is a nil
// *Buf: Begin and End are nil-receiver no-ops, so the hot path costs one
// branch and zero allocations (pinned by TestSpanHotPathZeroAlloc).
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies a span within the per-pass taxonomy.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it never appears in a valid trace.
	KindInvalid Kind = iota
	// KindPass is the root span of one materialization pass.
	KindPass
	// KindAdmit covers the wait in the engine's pass-admission arbiter.
	KindAdmit
	// KindCacheLookup covers the plan phase: intern-table work, result-cache
	// lookups, and DAG construction (includes any wait for the plan lock).
	KindCacheLookup
	// KindPublish covers the publication phase: result-cache inserts and
	// duplicate-sink payload copies.
	KindPublish
	// KindSuperTask is one scheduler dispatch unit (a contiguous partition
	// range) on a worker.
	KindSuperTask
	// KindRead covers loading one partition's leaf data (prefetch wait plus
	// synchronous fallback reads). Bytes carries the bytes loaded, N the
	// leaf-partition loads — both mirror MaterializeStats exactly.
	KindRead
	// KindCompute covers one partition's Pcache chunk loop (N = chunks).
	KindCompute
	// KindWriteBack covers persisting one partition's tall outputs: on a
	// worker track it is the enqueue stall; on a writer track it is one
	// write-behind job. Bytes is set only on writer tracks, where the bytes
	// are actually written, so summing over all KindWriteBack spans equals
	// MaterializeStats.BytesWritten.
	KindWriteBack
	// KindDrain covers the end-of-pass write-behind drain barrier.
	KindDrain
	// KindRewrite is never emitted (no rewrite pass); bench/ still reads it.
	KindRewrite
	// KindShard covers a pass's sharded execution phase on the coordinator:
	// program encoding, leaf pushes, worker fan-out, and partial combining.
	// Bytes carries the wire bytes exchanged, N the aggregation rounds.
	KindShard
	// KindRecover covers worker recovery during a sharded pass: re-hello,
	// registry re-push, and lineage replay after an epoch-fence rejection.
	// N carries the number of recoveries the pass absorbed.
	KindRecover
	kindCount
)

var kindNames = [...]string{
	KindInvalid:     "invalid",
	KindPass:        "pass",
	KindAdmit:       "admit",
	KindCacheLookup: "cache-lookup",
	KindPublish:     "publish",
	KindSuperTask:   "super-task",
	KindRead:        "read",
	KindCompute:     "compute",
	KindWriteBack:   "write-back",
	KindDrain:       "drain",
	KindRewrite:     "rewrite",
	KindShard:       "shard-exec",
	KindRecover:     "shard-recover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromString inverts Kind.String (Chrome JSON round-trips by name).
func KindFromString(s string) Kind {
	for k, n := range kindNames {
		if n == s {
			return Kind(k)
		}
	}
	return KindInvalid
}

// Track layout. Every span lives on one track of its pass: the root track is
// the pass's orchestrating goroutine, worker tracks are the compute workers,
// writer tracks are the write-behind lanes. Tracks are execution lanes, so
// spans on one track are strictly nested or disjoint — the invariant Verify
// enforces.
const (
	// TrackRoot is the pass's orchestrating goroutine.
	TrackRoot int32 = 0
	// writerBase offsets write-behind lane tracks past any realistic worker
	// count.
	writerBase int32 = 1 << 10
)

// WorkerTrack returns the track of compute worker i.
func WorkerTrack(i int) int32 { return 1 + int32(i) }

// WriterTrack returns the track of write-behind lane i.
func WriterTrack(i int) int32 { return writerBase + int32(i) }

// IsWorkerTrack reports whether t is a compute-worker track.
func IsWorkerTrack(t int32) bool { return t >= 1 && t < writerBase }

// IsWriterTrack reports whether t is a write-behind lane track.
func IsWriterTrack(t int32) bool { return t >= writerBase }

// TrackName renders a track for export.
func TrackName(t int32) string {
	switch {
	case t == TrackRoot:
		return "pass"
	case IsWriterTrack(t):
		return fmt.Sprintf("writer %d", t-writerBase)
	default:
		return fmt.Sprintf("worker %d", t-1)
	}
}

// Event is one closed span. Start and End are nanoseconds since the tracer's
// epoch.
type Event struct {
	Pass  int64
	Track int32
	Kind  Kind
	Start int64
	End   int64
	// Arg identifies the span's subject (partition or task index, lane id).
	Arg int64
	// Bytes and N carry span-kind-specific counters (see the Kind docs).
	Bytes int64
	N     int64
}

// Dur returns the span duration.
func (e Event) Dur() time.Duration { return time.Duration(e.End - e.Start) }

// Span is the open-span token returned by Buf.Begin and consumed by Buf.End.
// It is a plain value held on the caller's stack; the caller may set Bytes
// and N between Begin and End. A zero Span (from a nil Buf) is inert.
type Span struct {
	Bytes int64
	N     int64

	kind  Kind
	arg   int64
	start int64
	open  bool
}

// PassMeta is the identity of one recorded pass.
type PassMeta struct {
	Pass  int64  `json:"pass"`
	Owner string `json:"owner,omitempty"`
	// Batch labels the request batch a serving front-end coalesced into
	// this pass (empty for passes submitted outside one).
	Batch string `json:"batch,omitempty"`
}

// Buf is a single-owner span buffer: one per execution lane (the pass's own
// goroutine, each worker, each write-behind lane). Methods are nil-receiver
// safe — a nil *Buf is the disabled-tracing fast path and costs one branch.
// A Buf must only ever be appended to by one goroutine at a time; ownership
// hand-offs (write-behind lanes) must be synchronized by the caller.
type Buf struct {
	tr     *Tracer
	pass   int64
	track  int32
	opens  int
	events []Event
}

// Begin opens a span of the given kind. arg identifies the subject
// (partition index, task index, lane id — by Kind convention).
func (b *Buf) Begin(kind Kind, arg int64) Span {
	if b == nil {
		return Span{}
	}
	b.opens++
	return Span{kind: kind, arg: arg, start: b.tr.now(), open: true}
}

// End closes a span opened by Begin on this Buf, recording it as an Event.
// Ending a zero Span (nil-Buf Begin) is a no-op.
func (b *Buf) End(sp Span) {
	if b == nil || !sp.open {
		return
	}
	b.opens--
	b.events = append(b.events, Event{
		Pass: b.pass, Track: b.track, Kind: sp.kind,
		Start: sp.start, End: b.tr.now(),
		Arg: sp.arg, Bytes: sp.Bytes, N: sp.N,
	})
}

// Len returns the number of closed spans buffered (tests).
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	return len(b.events)
}

// Tracer collects spans and pass metadata for one engine. All mutation after
// construction happens through Collect (mutex-guarded); the per-lane Bufs
// are lock-free by ownership.
type Tracer struct {
	epoch time.Time

	mu       sync.Mutex
	events   []Event
	passes   []PassMeta
	unclosed int
}

// New creates a tracer whose span timestamps count from now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// NewBuf creates a span buffer for one execution lane of one pass. A nil
// tracer returns a nil Buf, which is the valid disabled state.
func (t *Tracer) NewBuf(pass int64, track int32) *Buf {
	if t == nil {
		return nil
	}
	return &Buf{tr: t, pass: pass, track: track}
}

// Collect stitches a finished pass's lane buffers into the tracer. Every
// lane must have quiesced (no goroutine still appending). Buffers are
// consumed; spans left open at collection are counted so Verify can fail the
// trace. Nil buffers are skipped.
func (t *Tracer) Collect(meta PassMeta, bufs ...*Buf) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.passes = append(t.passes, meta)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		t.events = append(t.events, b.events...)
		t.unclosed += b.opens
		b.events, b.opens = nil, 0
	}
}

// Data is an immutable snapshot of a tracer's collected trace.
type Data struct {
	Events []Event
	Passes []PassMeta
	// Unclosed counts spans that were begun but never ended by collection
	// time; a well-formed trace has zero.
	Unclosed int
}

// Data snapshots everything collected so far.
func (t *Tracer) Data() *Data {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &Data{
		Events:   append([]Event(nil), t.events...),
		Passes:   append([]PassMeta(nil), t.passes...),
		Unclosed: t.unclosed,
	}
	return d
}
