package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Config configures a sharded coordinator.
type Config struct {
	// Shards is the number of in-process workers to spawn when Addrs is
	// empty (0 = 2). Ignored when Addrs is set.
	Shards int
	// Addrs, when non-empty, are TCP worker addresses (one shard per
	// worker process, in row order).
	Addrs []string
	// RPCTimeout bounds each RPC attempt (0 = 30s).
	RPCTimeout time.Duration
	// Retries is how many times a transiently failed RPC is re-attempted
	// (0 = 3, negative = none). Every op is idempotent, so retrying after a
	// lost response re-executes safely.
	Retries int
	// RetryBackoff is the first retry's delay, doubling per attempt
	// (0 = 20ms).
	RetryBackoff time.Duration
	// CheckpointPath, when set, persists the pushed-leaf registry and the
	// keep-lineage table to this sidecar file after every pass, and resumes
	// from it (same session epoch, same pass sequence) at construction.
	CheckpointPath string
	// WrapTransport, when set, wraps each worker transport after
	// construction — the fault-injection seam for tests.
	WrapTransport func(worker int, t Transport) Transport
}

func (c Config) withDefaults() Config {
	if len(c.Addrs) > 0 {
		c.Shards = len(c.Addrs)
	} else if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
	return c
}

// retryBackoffMax caps the doubling retry backoff: a restarting worker
// process needs the retry budget spread over wall-clock time, not exhausted
// in milliseconds.
const retryBackoffMax = 2 * time.Second

// procNonce identifies this coordinator process in checkpoints: matrix IDs
// and content versions are process-local, so registry entries written by a
// different process cannot be re-bound to local matrices.
var procNonce = rand.Uint64() | 1

// shardRange is one worker's contiguous slice of the partition dimension.
type shardRange struct {
	part0  int
	nparts int
	row0   int64
	rows   int64
}

// splitParts assigns the matrix's I/O partitions to n shards in contiguous
// runs, spreading the remainder over the leading shards. The split depends
// only on (nrow, partRows, n), so leaf pushes from earlier passes stay valid.
func splitParts(nrow int64, partRows, n int) []shardRange {
	total := matrix.NumParts(nrow, partRows)
	q, r := total/n, total%n
	out := make([]shardRange, n)
	part := 0
	for i := range out {
		np := q
		if i < r {
			np++
		}
		row0 := int64(part) * int64(partRows)
		rows := int64(0)
		for p := 0; p < np; p++ {
			rows += int64(matrix.PartRowsOf(nrow, partRows, part+p))
		}
		out[i] = shardRange{part0: part, nparts: np, row0: row0, rows: rows}
		part += np
	}
	return out
}

type pushedLeaf struct {
	ver    uint64
	handle string
	// m is the local matrix behind the handle — the recovery path re-pushes
	// from it after a worker restart. Nil right after a checkpoint resume
	// until the first pass re-binds it by (id, version).
	m *core.Mat
}

// passIO attributes wire traffic to one materialization pass. Fields are
// atomics because the fan-out phase calls from per-shard goroutines.
type passIO struct {
	sent, recv, retries atomic.Int64
	recoveries, replays atomic.Int64
}

// Coordinator is the RemoteExecutor that row-partitions every pass across
// shard workers: it maps the compiled program's leaf table to worker-resident
// handles, pushes leaf data (once per content version), fans the program out,
// combines raw sink partials in fixed shard order, and attaches RemoteStores
// to tall targets so results stay worker-resident across passes.
type Coordinator struct {
	cfg      Config
	partRows int
	trs      []Transport
	lbs      []*loopback // in-proc mode only (owned, closed with the coordinator)

	// epoch is the session identity every fenced RPC carries; boots holds
	// each worker's last-seen boot id (updated by the recovery re-hello).
	// recMu serializes recovery per worker so concurrent fenced RPCs repair
	// it once.
	epoch uint64
	boots []atomic.Uint64
	recMu []sync.Mutex

	passSeq atomic.Int64
	closed  atomic.Bool

	// pushMu serializes the map-and-push phase across concurrent passes
	// so the pushed-leaf registry and the worker-resident data stay
	// coherent; execution fan-out overlaps freely. pushedMu guards only the
	// registry map itself — the recovery path snapshots it without blocking
	// on (or deadlocking against) an in-progress push phase.
	pushMu   sync.Mutex
	pushedMu sync.Mutex
	pushed   map[uint64]pushedLeaf
	// inherited are worker-resident handles restored from another process's
	// checkpoint: valid lineage inputs while their workers stay up, but not
	// re-pushable here.
	inherited map[string]bool

	lin lineage

	sent, recv, retries atomic.Int64
	recoveries          atomic.Int64
	replayedKeeps       atomic.Int64
}

// NewCoordinator builds a coordinator over TCP workers (cfg.Addrs) or over
// freshly spawned in-process workers (cfg.Shards copies of base, forced to
// in-memory stores). Either way every worker answers a hello validating the
// protocol version and the shared partition height before this returns.
func NewCoordinator(cfg Config, base core.Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	partRows := base.PartRows
	if partRows <= 0 {
		partRows = core.DefaultPartRows
	}
	c := &Coordinator{
		cfg:       cfg,
		partRows:  partRows,
		pushed:    make(map[uint64]pushedLeaf),
		inherited: make(map[string]bool),
		boots:     make([]atomic.Uint64, cfg.Shards),
		recMu:     make([]sync.Mutex, cfg.Shards),
	}
	if cfg.CheckpointPath != "" {
		ck, err := readCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if ck != nil && ck.shards == cfg.Shards && ck.partRows == partRows {
			c.epoch = ck.epoch
			c.passSeq.Store(ck.passSeq)
			if ck.procNonce == procNonce {
				// Same process: registry entries re-bind to local matrices
				// lazily, by (id, version), at the next encode.
				for _, e := range ck.registry {
					c.pushed[e.id] = pushedLeaf{ver: e.ver, handle: e.handle}
				}
			} else {
				// Another process's matrices: the handles stay usable as
				// worker-resident lineage inputs, nothing more.
				for _, e := range ck.registry {
					c.inherited[e.handle] = true
				}
			}
			c.lin.restore(ck.linSeq, ck.recs)
		}
	}
	if c.epoch == 0 {
		c.epoch = rand.Uint64() | 1
	}
	if len(cfg.Addrs) > 0 {
		for _, a := range cfg.Addrs {
			c.trs = append(c.trs, newTCPTransport(a, cfg.RPCTimeout))
		}
	} else {
		wcfg := base
		wcfg.PartRows = partRows
		wcfg.EM = false
		wcfg.FS = nil
		for i := 0; i < cfg.Shards; i++ {
			lb, err := newLoopback(wcfg)
			if err != nil {
				c.Close()
				return nil, err
			}
			c.lbs = append(c.lbs, lb)
			c.trs = append(c.trs, lb)
		}
	}
	if cfg.WrapTransport != nil {
		for i, t := range c.trs {
			c.trs[i] = cfg.WrapTransport(i, t)
		}
	}
	hello := encodeHelloReq(helloReq{Version: protocolVersion, PartRows: partRows, Epoch: c.epoch})
	for i := range c.trs {
		resp, err := c.call(context.Background(), i, opHello, hello, nil)
		if err != nil {
			c.Close()
			return nil, err
		}
		h, derr := decodeHelloResp(resp)
		if derr != nil {
			c.Close()
			return nil, derr
		}
		if h.Version != protocolVersion || h.PartRows != partRows {
			c.Close()
			return nil, fmt.Errorf("shard: worker %d hello mismatch: version %d part-rows %d, want %d/%d",
				i, h.Version, h.PartRows, protocolVersion, partRows)
		}
		c.boots[i].Store(h.Boot)
	}
	return c, nil
}

// Recoveries returns the lifetime count of worker recoveries (re-hello +
// re-push + lineage replay after a fencing rejection).
func (c *Coordinator) Recoveries() int64 { return c.recoveries.Load() }

// ReplayedKeeps returns the lifetime count of kept talls reconstructed by
// lineage replay.
func (c *Coordinator) ReplayedKeeps() int64 { return c.replayedKeeps.Load() }

// Shards returns the worker count.
func (c *Coordinator) Shards() int { return len(c.trs) }

// Totals returns lifetime wire-traffic counters.
func (c *Coordinator) Totals() (sent, recv, retries int64) {
	return c.sent.Load(), c.recv.Load(), c.retries.Load()
}

// call is the retry/backoff RPC wrapper with recovery enabled: a fencing
// rejection triggers the worker recovery path, then the attempt repeats.
func (c *Coordinator) call(ctx context.Context, worker int, op uint8, body []byte, io *passIO) ([]byte, error) {
	return c.callRetry(ctx, worker, op, body, io, true)
}

// callRetry makes Retries+1 attempts against transient failures (doubling
// backoff capped at retryBackoffMax, context-aware), with a typed wrap on
// final failure. Every non-hello request is prefixed per attempt with the
// current (epoch, boot) fence, so a request built before a recovery still
// lands with the post-recovery fence. An EpochError — the worker restarted,
// or adopted state lapsed — runs recoverWorker (when allowRecover; the
// recovery path's own RPCs must not recurse) and repeats the attempt without
// consuming retry budget. Wire bytes are attributed to io (per-pass) and the
// lifetime totals; request bytes count once per attempt — retransmits are
// real traffic.
func (c *Coordinator) callRetry(ctx context.Context, worker int, op uint8, body []byte, io *passIO, allowRecover bool) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var last error
	backoff := c.cfg.RetryBackoff
	recovered := 0
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if io != nil {
				io.retries.Add(1)
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, &ShardError{Worker: worker, Op: op, Err: ctx.Err()}
			}
			backoff *= 2
			backoff = min(backoff, retryBackoffMax)
		}
		wire := body
		if op != opHello {
			wire = fenceBody(c.epoch, c.boots[worker].Load(), body)
		}
		sent := int64(len(wire) + 5)
		c.sent.Add(sent)
		if io != nil {
			io.sent.Add(sent)
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
		resp, err := c.trs[worker].Call(actx, op, wire)
		cancel()
		if err == nil {
			recv := int64(len(resp) + 5)
			c.recv.Add(recv)
			if io != nil {
				io.recv.Add(recv)
			}
			return resp, nil
		}
		last = err
		var ee *EpochError
		if errors.As(err, &ee) {
			if !allowRecover || recovered >= 2 {
				break
			}
			recovered++
			if rerr := c.recoverWorker(ctx, worker, io); rerr != nil {
				last = fmt.Errorf("%v (recovery: %w)", err, rerr)
				break
			}
			attempt-- // the recovered attempt is free
			continue
		}
		if !isTransient(err) {
			break
		}
		if ctx.Err() != nil {
			last = ctx.Err()
			break
		}
	}
	se := &ShardError{Worker: worker, Op: op, Err: last}
	var ee *EpochError
	if errors.As(last, &ee) {
		se.Reason = "epoch"
	}
	return nil, se
}

// recoverWorker repairs one worker after a fencing rejection: re-hello with
// the session epoch, and — if the worker restarted (new boot id) or lost its
// state — re-push its slice of every registry leaf and replay the lineage
// chain in pass order, threading the recorded entry carries, so its kept
// talls are reconstructed before the fenced request retries. Keeps replayed
// only as chain inputs (their stores are gone) are freed again at the end.
// Per-worker serialization via recMu means concurrent fenced RPCs repair the
// worker once; the loser of the race re-hellos, sees the already-updated
// boot with state present, and returns.
func (c *Coordinator) recoverWorker(ctx context.Context, wi int, io *passIO) error {
	c.recMu[wi].Lock()
	defer c.recMu[wi].Unlock()
	rctx := withRecovery(ctx)
	hello := encodeHelloReq(helloReq{Version: protocolVersion, PartRows: c.partRows, Epoch: c.epoch})
	resp, err := c.callRetry(rctx, wi, opHello, hello, io, false)
	if err != nil {
		return err
	}
	h, derr := decodeHelloResp(resp)
	if derr != nil {
		return derr
	}
	if h.Version != protocolVersion || h.PartRows != c.partRows {
		return fmt.Errorf("shard: worker %d recovery hello mismatch: version %d part-rows %d, want %d/%d",
			wi, h.Version, h.PartRows, protocolVersion, c.partRows)
	}
	if h.Boot == c.boots[wi].Load() && h.Kept > 0 {
		// Already repaired by a concurrent recovery — the fenced request just
		// raced it.
		return nil
	}
	c.boots[wi].Store(h.Boot)

	// Re-push this worker's slice of every re-bindable registry leaf.
	c.pushedMu.Lock()
	leaves := make([]pushedLeaf, 0, len(c.pushed))
	for _, pl := range c.pushed {
		if pl.m != nil {
			leaves = append(leaves, pl)
		}
	}
	avail := make(map[string]bool, len(c.pushed)+len(c.inherited))
	for _, pl := range c.pushed {
		avail[pl.handle] = true
	}
	for hdl := range c.inherited {
		avail[hdl] = true
	}
	c.pushedMu.Unlock()
	for _, pl := range leaves {
		sh := splitParts(pl.m.NRow(), c.partRows, len(c.trs))
		if err := c.pushLeafTo(rctx, pl.m, pl.handle, sh, wi, io); err != nil {
			return err
		}
	}

	// Replay the lineage chain. Inherited handles count as available while
	// planning, but a restarted worker no longer holds them — the replay exec
	// then fails with a typed lookup error, which is the honest outcome.
	plan, err := c.lin.replayPlan(wi, avail)
	if err != nil {
		return err
	}
	var replayed int64
	for _, step := range plan {
		sh := splitParts(step.nrow, c.partRows, len(c.trs))
		if sh[wi].rows == 0 {
			continue
		}
		req := execRequest{Owner: "shard-recover", Rows: sh[wi].rows, Prog: step.prog,
			Carries: step.carries, Keeps: step.keeps}
		rb, cerr := c.callRetry(rctx, wi, opExec, encodeExecReq(req), io, false)
		if cerr != nil {
			return cerr
		}
		if _, derr := decodeExecResp(rb); derr != nil {
			return derr
		}
		for _, k := range step.keeps {
			if k != "" {
				replayed++
			}
		}
	}
	// Free keeps that exist only as intermediate chain inputs: finalized
	// records whose stores are gone. In-flight records keep theirs — their
	// pass will attach stores or clean up.
	for _, step := range plan {
		if !step.final {
			continue
		}
		sh := splitParts(step.nrow, c.partRows, len(c.trs))
		if sh[wi].rows == 0 {
			continue
		}
		for j, k := range step.keeps {
			if k != "" && !step.live[j] {
				c.freeHandleOn(rctx, wi, k)
			}
		}
	}
	c.recoveries.Add(1)
	c.replayedKeeps.Add(replayed)
	if io != nil {
		io.recoveries.Add(1)
		io.replays.Add(replayed)
	}
	return nil
}

type pushJob struct {
	m      *core.Mat
	handle string
	old    string // stale handle to free first, "" if none
}

// RunDAG executes one materialization's compiled program across the shards
// and returns a RemoteStore per tall position and the combined raw reduction
// per sink. See the package comment for the protocol; the invariants that
// matter:
//
//   - Results exist only after every shard succeeded — a failed pass surfaces
//     a typed ShardError and never a silent partial aggregate.
//   - Partials combine in fixed shard order, so results are bit-identical to
//     the single-engine path for order-insensitive folds and reassociate only
//     float sums.
//   - Passes with cum.col instructions and more than one active shard run
//     the shards sequentially, threading each shard's exit carry (its
//     accumulator after its last row) into the next — cumulative folds stay
//     bit-identical too.
func (c *Coordinator) RunDAG(ctx context.Context, d *core.RemoteDAG, ms *core.MaterializeStats) (*core.ProgramResult, error) {
	if c.closed.Load() {
		return nil, errors.New("shard: coordinator closed")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sh := splitParts(d.NRow, c.partRows, len(c.trs))
	pass := c.passSeq.Add(1)
	var io passIO

	prog, err := c.mapAndPush(ctx, d, sh, &io)
	if err != nil {
		return nil, err
	}

	// One handle per tall position: unified targets share an instruction but
	// each position is written to its own worker-side matrix, so each
	// RemoteStore frees on its own schedule.
	keeps := make([]string, len(prog.Talls))
	for i := range prog.Talls {
		keeps[i] = fmt.Sprintf("t%d-%d", pass, i)
	}
	var active []int
	for i := range sh {
		if sh[i].rows > 0 {
			active = append(active, i)
		}
	}

	// Register the pass in the lineage table (sink-only passes produce no
	// worker-resident state, so there is nothing to replay for them), and
	// checkpoint whatever state the pass left behind on the way out.
	var rec *lineageRec
	if len(prog.Talls) > 0 {
		rec = c.lin.begin(len(c.trs), d.NRow, prog, keeps)
	}
	if c.cfg.CheckpointPath != "" {
		defer c.saveCheckpoint()
	}
	fail := func(err error) (*core.ProgramResult, error) {
		c.lin.abort(rec)
		c.cleanupKeeps(keeps, active)
		return nil, err
	}

	// execShard runs the program on shard si. A response must carry one
	// partial per sink before the shard counts as done.
	execShard := func(si int, carries map[int32][]float64, carryOut []int32) (*execResponse, error) {
		req := execRequest{Owner: d.Owner, Rows: sh[si].rows, Prog: prog,
			Carries: carries, Keeps: keeps, CarryOut: carryOut}
		rb, err := c.call(ctx, si, opExec, encodeExecReq(req), &io)
		if err != nil {
			return nil, err
		}
		r, err := decodeExecResp(rb)
		if err != nil {
			return nil, err
		}
		if len(r.Partials) != len(prog.Sinks) {
			return nil, fmt.Errorf("shard: worker %d returned %d partials, want %d", si, len(r.Partials), len(prog.Sinks))
		}
		c.lin.markDone(rec, si)
		return &r, nil
	}
	resps := make([]*execResponse, len(sh))
	if len(prog.Cums) > 0 && len(active) > 1 {
		// Sequential carry chain: shard s+1's cum.col folds continue from
		// shard s's exit accumulator. A mid-chain fault resumes at the failed
		// shard: earlier shards' execs are done, their entry carries recorded,
		// and the per-call retry resends the same request — with the same
		// carries — rather than restarting the chain.
		carries := map[int32][]float64(nil)
		for _, si := range active {
			c.lin.setCarry(rec, si, carries)
			r, err := execShard(si, carries, prog.Cums)
			if err != nil {
				return fail(err)
			}
			resps[si], carries = r, r.Carries
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, len(sh))
		for _, si := range active {
			si := si
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[si], errs[si] = execShard(si, nil, nil)
			}()
		}
		wg.Wait()
		for _, si := range active {
			if errs[si] != nil {
				return fail(errs[si])
			}
		}
	}

	// Combine every sink before returning any: publication is all-or-nothing.
	res := &core.ProgramResult{}
	for si := range prog.Sinks {
		parts := make([]*core.SinkPartial, 0, len(active))
		for _, s := range active {
			parts = append(parts, resps[s].Partials[si])
		}
		comb, err := prog.Sinks[si].Combine(parts)
		if err != nil {
			return fail(err)
		}
		res.Partials = append(res.Partials, comb)
	}
	for i, ti := range prog.Talls {
		res.Talls = append(res.Talls, &RemoteStore{c: c, handle: keeps[i], nrow: d.NRow,
			ncol: int(prog.Nodes[ti].NCol), partRows: c.partRows, sh: sh})
	}
	c.lin.finish(rec)

	for _, s := range active {
		st := resps[s].Stats
		ms.ShardPasses += st.Passes
		ms.ShardWorkerRead += st.BytesRead
		ms.ShardWorkerWritten += st.BytesWritten
	}
	if len(prog.Sinks) > 0 {
		ms.ShardAggRounds++
	}
	ms.ShardBytesSent += io.sent.Load()
	ms.ShardBytesRecv += io.recv.Load()
	ms.ShardRetries += io.retries.Load()
	ms.ShardRecoveries += io.recoveries.Load()
	ms.ShardReplayedKeeps += io.replays.Load()
	return res, nil
}

// mapAndPush maps the program's leaf table to worker-resident handles and
// ships every leaf the workers do not already hold. Runs under pushMu: the
// pushed-leaf registry records what is worker-resident per (matrix ID,
// content version), and concurrent passes must not observe half-pushed
// leaves.
func (c *Coordinator) mapAndPush(ctx context.Context, d *core.RemoteDAG, sh []shardRange, io *passIO) (*core.Program, error) {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	var jobs []pushJob
	for i, m := range d.Leaves {
		if m != nil {
			d.Prog.Nodes[i].Leaf = c.leafHandle(m, &jobs)
		}
	}
	for _, j := range jobs {
		if j.old != "" {
			c.freeAll(j.old)
		}
		if perr := c.pushLeaf(ctx, j.m, j.handle, sh, io); perr != nil {
			c.unpush(jobs)
			return nil, perr
		}
	}
	return d.Prog, nil
}

// leafHandle returns the worker-resident handle m's data is (or will be,
// once the queued push job runs) available under.
func (c *Coordinator) leafHandle(m *core.Mat, jobs *[]pushJob) string {
	// A leaf whose data is already a RemoteStore of this coordinator is
	// worker-resident: reference it by its existing handle. This is what
	// keeps iterative algorithms' tall intermediates on the workers.
	if rs, ok := core.UnwrapStore(m.Store()).(*RemoteStore); ok && rs.c == c {
		return rs.handle
	}
	id, ver := m.ID(), m.ContentVersion()
	c.pushedMu.Lock()
	defer c.pushedMu.Unlock()
	if pl, ok := c.pushed[id]; ok && pl.ver == ver {
		if pl.m == nil {
			// Checkpoint-resumed entry meeting its matrix again: re-bind so
			// the recovery path can re-push it.
			pl.m = m
			c.pushed[id] = pl
		}
		return pl.handle
	}
	h := fmt.Sprintf("m%d-v%d", id, ver)
	job := pushJob{m: m, handle: h}
	if pl, ok := c.pushed[id]; ok {
		job.old = pl.handle
	}
	*jobs = append(*jobs, job)
	c.pushed[id] = pushedLeaf{ver: ver, handle: h, m: m}
	return h
}

// unpush rolls the registry back after a failed push so a later
// pass re-pushes from scratch; already-shipped partitions are freed
// best-effort.
func (c *Coordinator) unpush(jobs []pushJob) {
	c.pushedMu.Lock()
	for _, j := range jobs {
		delete(c.pushed, j.m.ID())
	}
	c.pushedMu.Unlock()
	for _, j := range jobs {
		c.freeAll(j.handle)
	}
}

// pushLeaf ships one matrix's partitions to their owning shards, renumbering
// global partition indexes to shard-local ones.
func (c *Coordinator) pushLeaf(ctx context.Context, m *core.Mat, handle string, sh []shardRange, io *passIO) error {
	for wi := range sh {
		if err := c.pushLeafTo(ctx, m, handle, sh, wi, io); err != nil {
			return err
		}
	}
	return nil
}

// pushLeafTo ships one worker's slice of a leaf (the recovery path's unit of
// work). Recovery contexts disable nested recovery in the calls beneath.
func (c *Coordinator) pushLeafTo(ctx context.Context, m *core.Mat, handle string, sh []shardRange, wi int, io *passIO) error {
	st := m.Store()
	if st == nil {
		return fmt.Errorf("shard: leaf %d is not materialized", m.ID())
	}
	buf := make([]float64, st.PartRows()*m.NCol())
	allowRecover := !isRecoveryCtx(ctx)
	for p := 0; p < sh[wi].nparts; p++ {
		g := sh[wi].part0 + p
		rows := matrix.PartRowsOf(m.NRow(), c.partRows, g)
		if err := st.ReadPart(g, buf[:rows*m.NCol()]); err != nil {
			return err
		}
		req := partReq{Handle: handle, NRow: sh[wi].rows, NCol: m.NCol(),
			DT: uint8(m.DType()), Part: p, Data: buf[:rows*m.NCol()]}
		if _, err := c.callRetry(ctx, wi, opPushPart, encodePartReq(req), io, allowRecover); err != nil {
			return err
		}
	}
	return nil
}

// cleanupKeeps best-effort frees this pass's keep handles on every active
// worker after a failure: some workers may hold freshly registered outputs
// no store will ever reference.
func (c *Coordinator) cleanupKeeps(keeps []string, active []int) {
	for _, h := range keeps {
		c.freeHandle(h, active)
	}
}

func (c *Coordinator) freeHandle(handle string, workers []int) {
	for _, wi := range workers {
		c.freeHandleOn(context.Background(), wi, handle)
	}
}

// freeHandleOn frees one handle on one worker, best-effort. A fencing
// rejection is NOT recovered here: recovery would pointlessly rebuild state
// on a worker that, having restarted, already forgot the handle.
func (c *Coordinator) freeHandleOn(ctx context.Context, wi int, handle string) {
	var w wbuf
	w.str(handle)
	c.callRetry(ctx, wi, opFreeMat, w.b, nil, false)
}

func (c *Coordinator) freeAll(handle string) {
	all := make([]int, len(c.trs))
	for i := range all {
		all[i] = i
	}
	c.freeHandle(handle, all)
}

// saveCheckpoint persists the session sidecar, best-effort: a failed write
// costs resumability, never the running pass.
func (c *Coordinator) saveCheckpoint() {
	if c.cfg.CheckpointPath == "" {
		return
	}
	ck := &checkpoint{
		procNonce: procNonce,
		epoch:     c.epoch,
		shards:    len(c.trs),
		partRows:  c.partRows,
		passSeq:   c.passSeq.Load(),
	}
	c.pushedMu.Lock()
	for id, pl := range c.pushed {
		ck.registry = append(ck.registry, checkpointEntry{id: id, ver: pl.ver, handle: pl.handle})
	}
	c.pushedMu.Unlock()
	ck.linSeq, ck.recs = c.lin.snapshot()
	writeCheckpoint(c.cfg.CheckpointPath, ck)
}

// CheckHandleBalance asserts (in-proc mode only) that every worker's resident
// handle set is exactly what the registry and the live lineage predict: the
// leak detector the chaos tests run after a workload. Only meaningful with no
// pass in flight.
func (c *Coordinator) CheckHandleBalance() error {
	n := len(c.trs)
	if len(c.lbs) != n {
		return fmt.Errorf("shard: handle balance check needs in-process workers")
	}
	expected := make([]map[string]bool, n)
	for wi := range expected {
		expected[wi] = make(map[string]bool)
	}
	c.pushedMu.Lock()
	for _, pl := range c.pushed {
		if pl.m == nil {
			c.pushedMu.Unlock()
			return fmt.Errorf("shard: handle balance: registry entry %q has no local matrix", pl.handle)
		}
		sh := splitParts(pl.m.NRow(), c.partRows, n)
		for wi := range sh {
			if sh[wi].nparts > 0 {
				expected[wi][pl.handle] = true
			}
		}
	}
	c.pushedMu.Unlock()
	c.lin.mu.Lock()
	for _, r := range c.lin.recs {
		if !r.final {
			c.lin.mu.Unlock()
			return fmt.Errorf("shard: handle balance: pass %d still in flight", r.seq)
		}
		for j, h := range r.keeps {
			if h == "" || !r.live[j] {
				continue
			}
			for wi := range r.done {
				if r.done[wi] {
					expected[wi][h] = true
				}
			}
		}
	}
	c.lin.mu.Unlock()
	for wi, lb := range c.lbs {
		got := lb.worker().Handles()
		gotSet := make(map[string]bool, len(got))
		for _, h := range got {
			gotSet[h] = true
			if !expected[wi][h] {
				return fmt.Errorf("shard: worker %d holds unexpected handle %q (leak)", wi, h)
			}
		}
		for h := range expected[wi] {
			if !gotSet[h] {
				return fmt.Errorf("shard: worker %d is missing expected handle %q", wi, h)
			}
		}
	}
	return nil
}

// Close releases transports and (in-proc mode) each loopback's current
// worker, the last replacement when a crash schedule restarted it. RemoteStore
// reads fail afterwards, so sessions must flush result caches that hold
// shard-backed matrices before closing the coordinator.
func (c *Coordinator) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.saveCheckpoint()
	for _, t := range c.trs {
		t.Close()
	}
	for _, lb := range c.lbs {
		lb.worker().Close()
	}
	return nil
}

// RemoteStore is a matrix.Store whose partitions live sharded across the
// coordinator's workers. Attaching one to a tall target is how results stay
// worker-resident; any local read (printing, small-matrix conversion,
// result-cache copies) fetches partitions over the transport on demand.
type RemoteStore struct {
	c        *Coordinator
	handle   string
	nrow     int64
	ncol     int
	partRows int
	sh       []shardRange
	freed    atomic.Bool
}

// Handle returns the worker-side matrix handle (tests).
func (rs *RemoteStore) Handle() string { return rs.handle }

func (rs *RemoteStore) NRow() int64   { return rs.nrow }
func (rs *RemoteStore) NCol() int     { return rs.ncol }
func (rs *RemoteStore) PartRows() int { return rs.partRows }
func (rs *RemoteStore) NumParts() int { return matrix.NumParts(rs.nrow, rs.partRows) }
func (rs *RemoteStore) Kind() string  { return "shard" }

// locate maps a global partition index to (worker, shard-local partition).
func (rs *RemoteStore) locate(i int) (int, int, error) {
	if err := matrix.CheckPart(rs, i); err != nil {
		return 0, 0, err
	}
	for wi := range rs.sh {
		if i >= rs.sh[wi].part0 && i < rs.sh[wi].part0+rs.sh[wi].nparts {
			return wi, i - rs.sh[wi].part0, nil
		}
	}
	return 0, 0, fmt.Errorf("shard: partition %d not covered by any shard", i)
}

func (rs *RemoteStore) ReadPart(i int, dst []float64) error {
	wi, local, err := rs.locate(i)
	if err != nil {
		return err
	}
	rb, err := rs.c.call(context.Background(), wi, opFetchPart,
		encodeFetchReq(fetchReq{Handle: rs.handle, Part: local}), nil)
	if err != nil {
		return err
	}
	r := rbuf{b: rb}
	data := r.f64s()
	if r.err != nil {
		return r.err
	}
	rows := matrix.PartRowsOf(rs.nrow, rs.partRows, i)
	if len(data) != rows*rs.ncol {
		return fmt.Errorf("shard: fetched part %d has %d values, want %d", i, len(data), rows*rs.ncol)
	}
	copy(dst, data)
	return nil
}

func (rs *RemoteStore) WritePart(i int, src []float64) error {
	wi, local, err := rs.locate(i)
	if err != nil {
		return err
	}
	rows := matrix.PartRowsOf(rs.nrow, rs.partRows, i)
	req := partReq{Handle: rs.handle, NRow: rs.sh[wi].rows, NCol: rs.ncol,
		DT: uint8(matrix.F64), Part: local, Data: src[:rows*rs.ncol]}
	_, err = rs.c.call(context.Background(), wi, opWritePart, encodePartReq(req), nil)
	return err
}

// Free releases the worker-side copies (best-effort; the coordinator may
// already be closed during teardown).
func (rs *RemoteStore) Free() error {
	if rs.freed.Swap(true) || rs.c.closed.Load() {
		return nil
	}
	rs.c.lin.markDead(rs.handle)
	var active []int
	for wi := range rs.sh {
		if rs.sh[wi].nparts > 0 {
			active = append(active, wi)
		}
	}
	rs.c.freeHandle(rs.handle, active)
	return nil
}
