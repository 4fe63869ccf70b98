package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/safs"
	"repro/internal/trace"
)

// binding is a resolved program bound to one pass's data: the store behind
// every leaf instruction, which tall outputs the caller cached on the SSD
// array, and the cum.col accumulators entering the pass (absent = the fold
// identity).
type binding struct {
	p      *Program
	nrow   int64
	leaves []matrix.Store // indexed like p.Nodes; set on leaf instructions
	ssd    []bool         // per tall position (nil = none): set.cache(em=TRUE)
	seeds  map[int32][]float64
}

// runState carries everything shared by the workers of one fused pass.
type runState struct {
	e         *Engine
	p         *Program
	nrow      int64
	nparts    int
	chunkRows int
	outStores []matrix.Store // per tall position (returned on success)
	// writeStores are pass-tagged views of outStores: partition writes go
	// through them so the array queues and attributes the I/O to this pass.
	writeStores []matrix.Store
	// leafPass[i] is the pass-tagged view of leaf instruction i's store (nil
	// elsewhere); workers read and prefetch through these.
	leafPass []matrix.Store
	// pass is this run's SAFS identity (nil without an array).
	pass *safs.Pass
	// partNext is the next unclaimed partition: the scheduler's one dispatch
	// unit is one I/O partition.
	partNext atomic.Int64
	cum      *cumCoord
	// wb is the bounded write-behind queue for tall-output partitions
	// (nil when the program has no tall outputs).
	wb *safs.WriteBack

	// Per-pass observability counters, folded into MaterializeStats when
	// the pass finishes.
	bytesRead  atomic.Int64
	prefHits   atomic.Int64
	prefMiss   atomic.Int64
	readWaitNs atomic.Int64
	parts      atomic.Int64
	chunks     atomic.Int64
	// prefAbandoned counts prefetched partitions drained unconsumed on
	// worker-exit paths.
	prefAbandoned atomic.Int64

	// Deterministic sink reduction: each partition folds into its own
	// accumulator set and commits its partials when it finishes; commits
	// merge into global strictly in partition order, so a floating-point sink
	// result is a left fold of per-partition partials that depends on the
	// data, the program and PartRows, never on the worker count or on which
	// worker won the race for which partition.
	// mergeQueue buffers out-of-order commits (normally at most one per
	// worker; more only under heavy partition skew) until their turn.
	mergeMu    sync.Mutex
	mergeNext  int
	mergeQueue map[int][]*sinkAcc
	global     []*sinkAcc
	// spare holds accumulator sets whose partials are merged; a worker
	// resets one for its next partition instead of allocating a set.
	spare [][]*sinkAcc

	errMu  sync.Mutex
	err    error
	failed atomic.Bool
}

func (rs *runState) fail(err error) {
	rs.errMu.Lock()
	if rs.err == nil {
		rs.err = err
	}
	rs.errMu.Unlock()
	rs.failed.Store(true)
	if rs.cum != nil {
		rs.cum.abort()
	}
}

// runFused executes a bound program in a single parallel pass at the given
// fusion level and returns what it produced; the caller owns the tall
// stores. Tall-output partition writes ride the write-behind queue: a
// worker hands partition i's outputs to the queue and immediately starts
// partition i+1's compute, and the pass drains the queue at a barrier before
// returning — so a write failure, like any compute failure, always surfaces
// here. ms accumulates the pass's observability
// counters.
func (e *Engine) runFused(ctx context.Context, b *binding, fuse FuseLevel, ms *MaterializeStats, pass *safs.Pass, pr passRun) (*ProgramResult, error) {
	// Integrity counters are attributed through the pass identity's own
	// counters (not by diffing the array-wide totals, which would misattribute
	// under concurrent passes). Snapshot around the run since FuseNone reuses
	// one pass across several runFused calls.
	p0 := pass.Stats()
	p := b.p
	rs := &runState{e: e, p: p, nrow: b.nrow, pass: pass}
	rs.nparts = matrix.NumParts(b.nrow, e.cfg.PartRows)
	rs.chunkRows = e.chunkRowsFor(p, fuse)
	rs.outStores = make([]matrix.Store, len(p.Talls))
	rs.writeStores = make([]matrix.Store, len(p.Talls))
	freeOut := func() {
		for _, st := range rs.outStores {
			if st != nil {
				st.Free()
			}
		}
	}
	for t, i := range p.Talls {
		// set.cache(..., em=TRUE) caches on SSDs when an array is attached;
		// without one the cache falls back to memory.
		em := e.cfg.EM || (b.ssd != nil && b.ssd[t] && e.cfg.FS != nil)
		st, err := e.newStoreOn(b.nrow, int(p.Nodes[i].NCol), em)
		if err != nil {
			freeOut()
			return nil, err
		}
		if e.testStoreWrap != nil {
			st = e.testStoreWrap(st)
		}
		rs.outStores[t] = st
		rs.writeStores[t] = matrix.StoreWithPass(st, pass)
	}
	rs.leafPass = make([]matrix.Store, len(p.Nodes))
	for _, i := range p.leaves {
		rs.leafPass[i] = matrix.StoreWithPass(b.leaves[i], pass)
	}
	if len(p.cums) > 0 {
		rs.cum = newCumCoord(p, b.seeds, rs.nparts)
	}
	rs.mergeQueue = make(map[int][]*sinkAcc)
	rs.global = rs.newSinkAccs()
	if len(p.Talls) > 0 {
		// A failed write aborts the pass right away rather than at the
		// drain barrier, so compute stops producing partitions nobody can
		// persist.
		rs.wb = safs.NewWriteBack(e.writeBehindDepth(), func(err error) { rs.fail(err) })
		if pr.pt != nil {
			// One span buffer per write-behind lane; the lane token's channel
			// round-trip serializes buffer ownership across jobs.
			laneBufs := make([]*trace.Buf, rs.wb.Lanes())
			for i := range laneBufs {
				laneBufs[i] = pr.pt.newBuf(trace.WriterTrack(i))
			}
			rs.wb.SetTraceBufs(laneBufs)
		}
	}

	nw := e.cfg.Workers
	if nw > rs.nparts {
		nw = rs.nparts
	}
	if nw < 1 {
		nw = 1
	}
	// Goroutine labels are per goroutine, so each worker labels itself; CPU
	// profiles then segment by pass and session owner.
	labels := pprof.Labels("flashr_pass", strconv.FormatInt(pr.id, 10), "flashr_owner", pr.owner)
	var wg sync.WaitGroup
	workers := make([]*worker, nw)
	for i := 0; i < nw; i++ {
		workers[i] = newWorker(rs, i, nw)
		workers[i].buf = pr.pt.newBuf(trace.WorkerTrack(i))
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) { w.run() })
		}(workers[i])
	}
	// Cancellation watcher: flips the pass into the failed state so workers
	// stop at the next partition boundary; the drain below still waits out
	// writes already in flight.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	if ctx != nil && ctx.Done() != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-ctx.Done():
				rs.fail(ctx.Err())
			case <-watchDone:
			}
		}()
	}
	wg.Wait()
	close(watchDone)
	watchWG.Wait()
	// Invariant: every worker drained its pending prefetches before exiting
	// (the reads write into buffers of the engine pool, so an abandoned map
	// is a leak and a latent use-after-recycle in a later pass).
	for _, w := range workers {
		if len(w.pending) != 0 {
			rs.fail(fmt.Errorf("core: worker %d exited with %d pending prefetches", w.id, len(w.pending)))
		}
	}

	// Drain barrier: every queued write completes (or reports its failure)
	// before the pass returns and before any store is freed.
	if rs.wb != nil {
		drainSp := pr.pt.rootBuf().Begin(trace.KindDrain, pr.id)
		d0 := time.Now()
		if err := rs.wb.Drain(); err != nil {
			rs.fail(err)
		}
		pr.pt.rootBuf().End(drainSp)
		ms.WriteDrain += time.Since(d0)
		wst := rs.wb.Stats()
		ms.WriteStall += wst.Stall
		ms.WriteTime += wst.WriteTime
		ms.BytesWritten += wst.Bytes
		ms.WriteJobs += wst.Jobs
	}
	ms.Passes++
	ms.Parts += rs.parts.Load()
	ms.Chunks += rs.chunks.Load()
	// Instructions this pass computed: what CSE unification and cache hits
	// remove shows up directly as a smaller count here.
	ms.NodesExecuted += p.executed
	ms.BytesRead += rs.bytesRead.Load()
	ms.PrefetchHits += rs.prefHits.Load()
	ms.PrefetchMisses += rs.prefMiss.Load()
	ms.ReadWait += time.Duration(rs.readWaitNs.Load())
	ms.PrefetchAbandoned += rs.prefAbandoned.Load()
	if pass != nil {
		p1 := pass.Stats()
		ms.ChecksumFailures += p1.ChecksumFailures - p0.ChecksumFailures
		ms.IORetries += p1.Retries - p0.Retries
		ms.RecoveredReads += p1.RecoveredReads - p0.RecoveredReads
		ms.RecoveredWrites += p1.RecoveredWrites - p0.RecoveredWrites
		ms.VerifyTime += p1.VerifyTime - p0.VerifyTime
	}

	if rs.err != nil {
		freeOut()
		return nil, rs.err
	}
	// A clean pass committed every partition once, in order; an unmerged
	// remainder means a worker exited without committing or failing, which
	// must not pass silently.
	if rs.mergeNext != rs.nparts || len(rs.mergeQueue) != 0 {
		freeOut()
		return nil, fmt.Errorf("core: %d of %d partitions merged at pass end (%d queued)",
			rs.mergeNext, rs.nparts, len(rs.mergeQueue))
	}
	res := &ProgramResult{Talls: rs.outStores}
	for _, acc := range rs.global {
		res.Partials = append(res.Partials, acc.snapshot(true))
	}
	if rs.cum != nil {
		res.Carries = rs.cum.exits()
	}
	return res, nil
}

// chunkRowsFor sizes a Pcache partition: small enough that one chunk of the
// widest slot in the program fits the Pcache budget; FuseMem evaluates whole
// I/O partitions.
func (e *Engine) chunkRowsFor(p *Program, fuse FuseLevel) int {
	if fuse != FuseCache {
		return e.cfg.PartRows
	}
	rows := e.cfg.PcacheBytes / 8 / p.maxCol
	if rows < 4 {
		rows = 4
	}
	if rows > e.cfg.PartRows {
		rows = e.cfg.PartRows
	}
	return rows
}

// worker evaluates partitions. Its buffers come from the engine pool through
// a lock-free free list of its own (a few exact-length classes, searched
// linearly — the paper's fixed-chunk recycling at Pcache granularity), and
// its buffer tables are slot-indexed, so the per-chunk hot path is array
// arithmetic, not hashing or locking. Everything it holds goes back to the
// engine pool when it exits.
type worker struct {
	rs   *runState
	id   int
	node int // simulated NUMA node this worker is bound to
	// buf is this worker's span lane (nil when tracing is off).
	buf *trace.Buf
	// free is the worker's free list, drawn from the engine pool on a miss.
	free []freeClass
	// bufs[i] is slot i's chunk buffer between its step and its last use;
	// owned marks the pool buffers (leaf slots are views of leafBufs).
	bufs  [][]float64
	owned []bool
	// outBufs holds the current partition's tall-output buffers until they
	// are handed to the write-behind queue.
	outBufs [][]float64
	// sinks is the accumulator set of the partition currently being
	// processed, at the fold identity when it starts; it goes to commitPart.
	sinks []*sinkAcc
	// cumRun[i] is cum.col instruction i's running column accumulator for
	// the partition currently being processed.
	cumRun [][]float64
	// leafBufs holds the full current I/O partition per leaf instruction;
	// leafOwned marks which came from the pool (vs zero-copy MemStore
	// references that must not be recycled).
	leafBufs  [][]float64
	leafOwned []bool
	// pending holds prefetched partitions: partition → in-flight reads.
	pending map[int]*prefetched
}

// freeClass is one exact-length class of a worker's free list.
type freeClass struct {
	n    int
	bufs [][]float64
}

type prefetched struct {
	bufs map[int][]float64 // leaf instruction → buffer
	ch   chan safs.Request
	want int
}

func newWorker(rs *runState, id, total int) *worker {
	n := len(rs.p.Nodes)
	return &worker{
		rs:        rs,
		id:        id,
		node:      rs.e.cfg.Topo.NodeOfWorker(id, total),
		bufs:      make([][]float64, n),
		outBufs:   make([][]float64, len(rs.p.Talls)),
		owned:     make([]bool, n),
		cumRun:    make([][]float64, n),
		leafBufs:  make([][]float64, n),
		leafOwned: make([]bool, n),
		pending:   make(map[int]*prefetched),
	}
}

// newSinkAccs builds a fresh accumulator set (one per sink in the program).
func (rs *runState) newSinkAccs() []*sinkAcc {
	accs := make([]*sinkAcc, len(rs.p.Sinks))
	for i := range rs.p.Sinks {
		accs[i] = newSinkAcc(&rs.p.Sinks[i])
	}
	return accs
}

// takeSinkAccs returns an accumulator set at the fold identity for one
// partition: a spare one reset, or a fresh one.
func (rs *runState) takeSinkAccs() []*sinkAcc {
	rs.mergeMu.Lock()
	n := len(rs.spare)
	if n == 0 {
		rs.mergeMu.Unlock()
		return rs.newSinkAccs()
	}
	accs := rs.spare[n-1]
	rs.spare = rs.spare[:n-1]
	rs.mergeMu.Unlock()
	for _, a := range accs {
		a.reset()
	}
	return accs
}

// commitPart hands a finished partition's snapshotted accumulators to the
// ordered merge: queued under the partition index, then merged into
// rs.global together with any consecutive successors already waiting, each
// merged set becoming a spare. Only the commit under mergeMu touches
// rs.global, so the merge order is exactly partition order.
func (rs *runState) commitPart(p int, accs []*sinkAcc) {
	rs.mergeMu.Lock()
	defer rs.mergeMu.Unlock()
	rs.mergeQueue[p] = accs
	for {
		q, ok := rs.mergeQueue[rs.mergeNext]
		if !ok {
			return
		}
		delete(rs.mergeQueue, rs.mergeNext)
		for si, acc := range rs.global {
			acc.merge(&q[si].SinkPartial)
		}
		rs.spare = append(rs.spare, q)
		rs.mergeNext++
	}
}

func (w *worker) get(n int) []float64 {
	for i := range w.free {
		if c := &w.free[i]; c.n == n {
			if k := len(c.bufs); k > 0 {
				b := c.bufs[k-1]
				c.bufs = c.bufs[:k-1]
				return b
			}
			break
		}
	}
	return w.rs.e.pool.get(n)
}

func (w *worker) put(b []float64) {
	for i := range w.free {
		if c := &w.free[i]; c.n == len(b) {
			c.bufs = append(c.bufs, b)
			return
		}
	}
	w.free = append(w.free, freeClass{n: len(b), bufs: [][]float64{b}})
}

// release hands everything the worker holds back to the engine pool: slot,
// leaf and output buffers a failed partition left behind, then the free
// list.
func (w *worker) release() {
	pool := &w.rs.e.pool
	for i, b := range w.bufs {
		if w.owned[i] {
			pool.put(b)
		}
	}
	for i, b := range w.leafBufs {
		if w.leafOwned[i] {
			pool.put(b)
		}
	}
	for _, b := range w.outBufs {
		pool.put(b)
	}
	for _, c := range w.free {
		for _, b := range c.bufs {
			pool.put(b)
		}
	}
}

func (w *worker) run() {
	// Registered first so they run last: even when the recover handler
	// above them fires, every in-flight prefetch is waited out and then
	// every buffer the worker holds returns to the engine pool. An exit path
	// that abandons the pending map leaves async reads writing into buffers
	// the pool may hand to a later pass.
	defer w.release()
	defer w.drainPending()
	defer func() {
		if r := recover(); r != nil {
			w.rs.fail(fmt.Errorf("core: worker %d panic: %v", w.id, r))
		}
	}()
	p := w.claim()
	if p < 0 {
		return
	}
	// Issue read-ahead for the first claimed partition; each partition then
	// claims and prefetches its successor before computing.
	w.prefetch(p)
	for p >= 0 && !w.rs.failed.Load() {
		p = w.runPart(p)
	}
}

// claim takes the next unclaimed partition (-1 when none is left).
func (w *worker) claim() int {
	if p := int(w.rs.partNext.Add(1) - 1); p < w.rs.nparts {
		return p
	}
	return -1
}

// runPart processes one scheduler dispatch unit, partition p, under a
// super-task span: it claims the next partition and prefetches it before
// computing p, folds p into sink accumulators at the fold identity and
// commits their partials under p's index. It returns the claimed partition (-1 when the
// worker should exit).
func (w *worker) runPart(p int) (next int) {
	sp := w.buf.Begin(trace.KindSuperTask, int64(p))
	defer w.buf.End(sp)
	next = w.claim()
	if next >= 0 {
		w.prefetch(next)
	}
	w.sinks = w.rs.takeSinkAccs()
	if err := w.processPartition(p); err != nil {
		w.rs.fail(err)
		return -1
	}
	for _, a := range w.sinks {
		a.snapshot(false) // outside mergeMu
	}
	w.rs.commitPart(p, w.sinks)
	return next
}

// drainPending waits out every still-pending prefetch and returns its
// buffers to the worker's free list. Runs on every worker-exit path.
func (w *worker) drainPending() {
	for p, pf := range w.pending {
		delete(w.pending, p)
		for i := 0; i < pf.want; i++ {
			<-pf.ch
		}
		for _, b := range pf.bufs {
			w.put(b)
		}
		w.rs.prefAbandoned.Add(1)
	}
}

// prefetch issues asynchronous SAFS reads for every SAFS leaf of partition
// p (engine-created and named matrices alike). In-memory and remote leaves
// are read synchronously at use time.
func (w *worker) prefetch(p int) {
	if _, ok := w.pending[p]; ok {
		return
	}
	pf := &prefetched{bufs: make(map[int][]float64)}
	for _, i := range w.rs.p.leaves {
		st, ok := w.rs.leafPass[i].(*matrix.SAFSStore)
		if !ok {
			continue
		}
		rows := matrix.PartRowsOf(w.rs.nrow, w.rs.e.cfg.PartRows, p)
		buf := w.get(rows * int(w.rs.p.Nodes[i].NCol))
		if pf.ch == nil {
			pf.ch = make(chan safs.Request, len(w.rs.p.leaves))
		}
		if err := st.ReadPartAsync(p, buf, int(i), pf.ch); err != nil {
			// Fall back to a synchronous read at use time.
			w.put(buf)
			continue
		}
		pf.bufs[int(i)] = buf
		pf.want++
	}
	if pf.want > 0 {
		w.pending[p] = pf
		if h := w.rs.e.testSchedEvent; h != nil {
			h("prefetch", p)
		}
	}
}

// takePrefetched waits for partition p's async reads and installs their
// buffers as the partition's leaf buffers (leafOwned marks them), so no exit
// path after it can strand one.
func (w *worker) takePrefetched(p int) error {
	pf, ok := w.pending[p]
	if !ok {
		return nil
	}
	delete(w.pending, p)
	var firstErr error
	t0 := time.Now()
	for i := 0; i < pf.want; i++ {
		req := <-pf.ch
		if req.Err != nil && firstErr == nil {
			firstErr = req.Err
		}
	}
	w.rs.readWaitNs.Add(time.Since(t0).Nanoseconds())
	if firstErr != nil {
		for _, b := range pf.bufs {
			w.put(b)
		}
		return firstErr
	}
	for i, b := range pf.bufs {
		w.leafBufs[i], w.leafOwned[i] = b, true
	}
	return nil
}

func (w *worker) processPartition(p int) error {
	rs := w.rs
	e := rs.e
	if h := e.testSchedEvent; h != nil {
		h("process", p)
	}
	rows := matrix.PartRowsOf(rs.nrow, e.cfg.PartRows, p)
	if rows == 0 {
		return nil
	}
	partNode := e.cfg.Topo.NodeOfPart(p)

	// 1. Leaf partitions into memory (prefetched where possible). The read
	// span's Bytes/N mirror the bytesRead and prefetch counters exactly —
	// zero-copy in-memory references count in neither — which is what the
	// conservation suite pins.
	rsp := w.buf.Begin(trace.KindRead, int64(p))
	if err := w.takePrefetched(p); err != nil {
		w.buf.End(rsp)
		return err
	}
	for _, i := range rs.p.leaves {
		n := rows * int(rs.p.Nodes[i].NCol)
		e.cfg.Topo.RecordAccess(w.node, partNode)
		if w.leafOwned[i] { // prefetched
			rs.prefHits.Add(1)
			rs.bytesRead.Add(int64(n) * 8)
			rsp.Bytes += int64(n) * 8
			rsp.N++
			continue
		}
		st := rs.leafPass[i]
		// Zero-copy fast path for row-major in-memory partitions.
		if ms, ok := st.(*matrix.MemStore); ok {
			if ref, ok := ms.PartRef(p); ok {
				w.leafBufs[i] = ref
				w.leafOwned[i] = false
				continue
			}
		}
		// Held in leafBufs before the read, so a failing or panicking store
		// cannot strand the buffer: the worker's release returns it.
		buf := w.get(n)
		w.leafBufs[i] = buf
		w.leafOwned[i] = true
		if err := st.ReadPart(p, buf); err != nil {
			w.buf.End(rsp)
			return fmt.Errorf("core: reading leaf instruction %d partition %d: %w", i, p, err)
		}
		rs.prefMiss.Add(1)
		rs.bytesRead.Add(int64(n) * 8)
		rsp.Bytes += int64(n) * 8
		rsp.N++
	}
	w.buf.End(rsp)

	csp := w.buf.Begin(trace.KindCompute, int64(p))
	// 2. Cumulative carries: wait for partition p's carry vectors (§3.3(j)).
	if rs.cum != nil {
		if err := rs.cum.wait(p, w.cumRun); err != nil {
			w.buf.End(csp)
			return err
		}
	}

	// 3. Output partition buffers per tall position, straight from the
	// engine pool: the async writers return them there.
	outBufs := w.outBufs
	for t, i := range rs.p.Talls {
		outBufs[t] = e.pool.get(rows * int(rs.p.Nodes[i].NCol))
	}

	// 4. Pcache chunk loop: the program runs once per chunk.
	for r0 := 0; r0 < rows; r0 += rs.chunkRows {
		cr := rs.chunkRows
		if r0+cr > rows {
			cr = rows - r0
		}
		if err := w.runChunk(r0, cr, outBufs); err != nil {
			w.buf.End(csp)
			return err
		}
		rs.chunks.Add(1)
		csp.N++
	}

	// 5. Publish cumulative carries for partition p+1.
	if rs.cum != nil {
		rs.cum.publish(p+1, w.cumRun)
	}
	w.buf.End(csp)

	// 6. Hand tall-output partitions to the write-behind queue and move on
	// to the next partition's compute; buffer ownership transfers to the
	// writer until its release callback returns it to the engine pool.
	// The worker-side span times only the enqueue (a stall when the queue is
	// full); bytes land on the writer-lane spans, so summing Bytes over
	// every write-back span equals BytesWritten.
	wsp := w.buf.Begin(trace.KindWriteBack, int64(p))
	for t, i := range rs.p.Talls {
		buf := outBufs[t]
		n := rows * int(rs.p.Nodes[i].NCol)
		st := rs.writeStores[t]
		rs.wb.Enqueue(n*8, func() error {
			if err := st.WritePart(p, buf[:n]); err != nil {
				return fmt.Errorf("core: writing tall %d partition %d: %w", t, p, err)
			}
			return nil
		}, func() { e.pool.put(buf) })
		outBufs[t] = nil
	}
	w.buf.End(wsp)
	for _, i := range rs.p.leaves {
		if w.leafOwned[i] {
			w.put(w.leafBufs[i])
		}
		w.leafBufs[i] = nil
		w.leafOwned[i] = false
	}
	rs.parts.Add(1)
	return nil
}

// runChunk runs the program over rows [r0, r0+cr) of the current partition
// as a straight loop: each step computes its slot, copies it into the tall
// outputs that name it, feeds the sinks whose last operand it is, and hands
// back to the pool every slot whose last use it was — the next step's output
// then reuses a buffer that is still cache-hot.
func (w *worker) runChunk(r0, cr int, outBufs [][]float64) error {
	p := w.rs.p
	for _, i := range p.steps {
		n := &p.Nodes[i]
		w.step(n, i, r0, cr)
		nc := int(n.NCol)
		for _, t := range n.outs {
			copy(outBufs[t][r0*nc:(r0+cr)*nc], w.bufs[i][:cr*nc])
		}
		for _, si := range n.folds {
			s := &p.Sinks[si]
			var b []float64
			if s.B >= 0 {
				b = w.bufs[s.B]
			}
			if err := w.sinks[si].fold(w.bufs[s.A], b, cr); err != nil {
				return err
			}
		}
		for _, s := range n.free {
			if w.owned[s] {
				w.put(w.bufs[s])
			}
			w.bufs[s] = nil
		}
	}
	return nil
}

// step computes one Pcache chunk of instruction i into its slot.
func (w *worker) step(n *ProgramNode, i int32, r0, cr int) {
	nc := int(n.NCol)
	if opKind(n.Op) == opLeaf {
		w.bufs[i], w.owned[i] = w.leafBufs[i][r0*nc:(r0+cr)*nc], false
		return
	}
	out := w.get(cr * nc)
	w.bufs[i], w.owned[i] = out, true
	var a, b []float64
	var nca, ncb int
	if n.A >= 0 {
		a, nca = w.bufs[n.A], int(w.rs.p.Nodes[n.A].NCol)
	}
	if n.B >= 0 {
		b, ncb = w.bufs[n.B], int(w.rs.p.Nodes[n.B].NCol)
	}
	switch opKind(n.Op) {
	case opConst:
		for j := range out {
			out[j] = n.Const
		}

	case opSapply:
		n.un.ApplyV(out, a[:cr*nc])

	case opMapplyMM:
		n.bin.ApplyVV(out, a[:cr*nc], b[:cr*nc])

	case opMapplyScalar:
		if n.ScalarLeft {
			n.bin.ApplySV(out, n.Scalar, a[:cr*nc])
		} else {
			n.bin.ApplyVS(out, a[:cr*nc], n.Scalar)
		}

	case opMapplyRowVec:
		for r := 0; r < cr; r++ {
			arow := a[r*nc : (r+1)*nc]
			orow := out[r*nc : (r+1)*nc]
			if n.VecLeft {
				n.bin.ApplyVV(orow, n.Vec, arow)
			} else {
				n.bin.ApplyVV(orow, arow, n.Vec)
			}
		}

	case opMapplyColVec:
		for r := 0; r < cr; r++ {
			arow := a[r*nc : (r+1)*nc]
			orow := out[r*nc : (r+1)*nc]
			if n.VecLeft {
				n.bin.ApplySV(orow, b[r], arow)
			} else {
				n.bin.ApplyVS(orow, arow, b[r])
			}
		}

	case opInnerProd:
		// f64 %*% runs blas.GemmTail, which overwrites out with Gemm's bits
		// and skips the zero tails Resolve found in n.Small; k-means'
		// euclidean/"+" runs blas.SqDist, a register tile that overwrites
		// out and adds each cell's terms in k order from 0, the same bits as
		// evalInnerProdGen's fold; every other f1/f2 pair folds through
		// evalInnerProdGen. All three read n.Small row-major.
		p, mm := int(n.SmallR), int(n.SmallC)
		switch {
		case n.f1 == nil:
			blas.GemmTail(cr, mm, p, a, p, n.Small, mm, n.tails, out, mm)
		case n.f1 == BinEuclid && n.f2 == BinAdd:
			blas.SqDist(cr, mm, p, a, p, n.Small, mm, out, mm)
		default:
			evalInnerProdGen(out[:cr*mm], a[:cr*p], n.Small, p, mm, n.f1, n.f2, cr)
		}

	case opAggRow:
		switch {
		case argMode(n.Arg) == argMin:
			for r := 0; r < cr; r++ {
				out[r] = argExtreme(a[r*nca:(r+1)*nca], true)
			}
		case argMode(n.Arg) == argMax:
			for r := 0; r < cr; r++ {
				out[r] = argExtreme(a[r*nca:(r+1)*nca], false)
			}
		case n.agg == AggSum:
			for r := 0; r < cr; r++ {
				var s float64
				for _, v := range a[r*nca : (r+1)*nca] {
					s += v
				}
				out[r] = s
			}
		default:
			f := n.agg
			for r := 0; r < cr; r++ {
				out[r] = f.StepV(f.Init, a[r*nca:(r+1)*nca])
			}
		}

	case opGroupByCol:
		f := n.agg
		for j := range out {
			out[j] = f.Init
		}
		for r := 0; r < cr; r++ {
			arow := a[r*nca : (r+1)*nca]
			orow := out[r*nc : (r+1)*nc]
			if f == AggSum {
				for j, x := range arow {
					orow[n.labels[j]] += x
				}
			} else {
				for j, x := range arow {
					g := n.labels[j]
					orow[g] = f.Step(orow[g], x)
				}
			}
		}

	case opCumRow:
		f := n.agg
		for r := 0; r < cr; r++ {
			run := f.Init
			arow := a[r*nc : (r+1)*nc]
			orow := out[r*nc : (r+1)*nc]
			for j, x := range arow {
				run = f.Step(run, x)
				orow[j] = run
			}
		}

	case opCumCol:
		scanCols(n.agg, w.cumRun[i], out, a, cr)

	case opCols:
		matrix.GatherCols(out, a, cr, nca, n.cols)

	case opCbind:
		for r := 0; r < cr; r++ {
			copy(out[r*nc:r*nc+nca], a[r*nca:(r+1)*nca])
			copy(out[r*nc+nca:(r+1)*nc], b[r*ncb:(r+1)*ncb])
		}

	case opSetCols:
		copy(out, a[:cr*nc])
		for r := 0; r < cr; r++ {
			brow := b[r*ncb : (r+1)*ncb]
			orow := out[r*nc : (r+1)*nc]
			for j, c := range n.cols {
				orow[c] = brow[j]
			}
		}

	default:
		panic(fmt.Sprintf("core: step of unexpected op %v", opKind(n.Op)))
	}
}

// evalInnerProdGen is the generalized inner-product kernel (Table 1): for
// each output cell C[i,j], fold f2 over t = f1(A[i,k], B[k,j]) for all k.
// bData is the small operand, row-major p×mm. The fold identity comes from
// the aggregation function registered under f2's name (e.g. 0 for "+").
func evalInnerProdGen(out, a, bData []float64, p, mm int, f1, f2 *Binary, cr int) {
	init := aggInitFor(f2)
	for i := 0; i < cr; i++ {
		arow := a[i*p : (i+1)*p]
		orow := out[i*mm : (i+1)*mm]
		for j := 0; j < mm; j++ {
			acc := init
			for k := 0; k < p; k++ {
				acc = f2.F(f1.F(arow[k], bData[k*mm+j]), acc)
			}
			orow[j] = acc
		}
	}
}

// aggInitFor returns the fold identity matching a binary combiner by its R
// name (0 for "+", 1 for "*", ±Inf for pmin/pmax), defaulting to 0.
func aggInitFor(f *Binary) float64 {
	switch f.Name {
	case "*":
		return 1
	case "pmin", "min":
		return AggMin.Init
	case "pmax", "max":
		return AggMax.Init
	default:
		return 0
	}
}

// argExtreme returns the 0-based index of the first min (or max) of xs as
// a float64. NaNs are skipped, as R's which.min/which.max discard them: the
// search starts at the first number, and a NaN after it never compares
// less or greater. A row of only NaNs yields NaN (R's integer(0)).
func argExtreme(xs []float64, wantMin bool) float64 {
	best := 0
	for best < len(xs) && math.IsNaN(xs[best]) {
		best++
	}
	if best == len(xs) {
		return math.NaN()
	}
	bv := xs[best]
	for i := best + 1; i < len(xs); i++ {
		if v := xs[i]; (wantMin && v < bv) || (!wantMin && v > bv) {
			bv = v
			best = i
		}
	}
	return float64(best)
}
