package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/numa"
	"repro/internal/safs"
	"repro/internal/trace"
)

// FuseLevel selects how aggressively the engine fuses the operations of a
// DAG — the knob behind the Figure 10 ablation.
type FuseLevel int8

const (
	// FuseCache is the default and the paper's full optimization: one
	// fused pass per DAG with I/O partitions split into processor-cache
	// (Pcache) partitions, the compiled program run in instruction order per
	// Pcache chunk, and each chunk buffer recycled right after the
	// instruction that is its slot's last use, into the engine-lifetime
	// buffer pool.
	FuseCache FuseLevel = iota
	// FuseMem fuses all operations of a DAG into a single pass over the
	// I/O partitions but materializes intermediates one whole I/O
	// partition at a time in memory ("mem-fuse" minus "cache-fuse" in
	// Figure 10).
	FuseMem
	// FuseNone materializes every matrix operation separately (one full
	// parallel pass and one intermediate matrix per op) — the "base"
	// configuration of Figure 10, and how Spark-style engines execute.
	FuseNone
)

func (f FuseLevel) String() string {
	switch f {
	case FuseNone:
		return "none"
	case FuseMem:
		return "mem-fuse"
	case FuseCache:
		return "cache-fuse"
	default:
		return fmt.Sprintf("FuseLevel(%d)", int(f))
	}
}

// DefaultPartRows is the engine-wide I/O partition height. The paper fixes
// the number of rows per I/O partition across all matrices ("All
// I/O-partitions have the same number of rows regardless of the number of
// columns", §3.2.1) so that partition i of every matrix in a DAG lines up.
const DefaultPartRows = 1 << 14

// DefaultPcacheBytes sizes Pcache partitions to fit comfortably in L1/L2.
const DefaultPcacheBytes = 64 << 10

// Config configures an execution engine.
type Config struct {
	// Workers is the number of parallel evaluation goroutines
	// (0 = GOMAXPROCS).
	Workers int
	// Fuse selects the fusion level (default FuseCache).
	Fuse FuseLevel
	// Topo is the simulated NUMA topology (nil = process default).
	Topo *numa.Topology
	// FS is the SSD array for external-memory matrices. Required when EM
	// is set or when leaves live on SAFS.
	FS *safs.FS
	// EM directs materialized tall outputs to the SSD array instead of
	// memory (FlashR-EM vs FlashR-IM in the evaluation).
	EM bool
	// PartRows is the I/O partition height, a power of two
	// (0 = DefaultPartRows).
	PartRows int
	// PcacheBytes bounds a Pcache partition (0 = DefaultPcacheBytes).
	PcacheBytes int
	// DisableCSE turns off structural hash-consing entirely: no
	// common-subexpression unification at DAG-build time and no sub-DAG
	// result cache (the ablation knob for the equivalence suites).
	DisableCSE bool
	// ResultCacheBytes bounds the cross-materialize sub-DAG result cache
	// (0 = DefaultResultCacheBytes; negative disables the cache while
	// keeping within-pass CSE unification on).
	ResultCacheBytes int64
	// MaxConcurrentPasses bounds materialization passes running at once on
	// this engine (0 = DefaultMaxConcurrentPasses, negative = 1). Excess
	// passes queue in the admission arbiter: FIFO per owner, round-robin
	// across owners.
	MaxConcurrentPasses int
}

// DefaultMaxConcurrentPasses bounds in-flight passes when
// Config.MaxConcurrentPasses is zero.
const DefaultMaxConcurrentPasses = 4

// Engine materializes FlashR DAGs.
type Engine struct {
	cfg      Config
	fileSeq  atomic.Int64
	matSeqMu sync.Mutex

	statsMu  sync.Mutex
	lastMat  MaterializeStats
	totalMat MaterializeStats

	// passSeq numbers every pass for tracing and pprof labels; tracer is the
	// active span collector (nil = tracing off, the zero-cost path).
	passSeq atomic.Int64
	tracer  atomic.Pointer[trace.Tracer]

	metricsOnce sync.Once
	metrics     *trace.Registry

	// pool is the engine-lifetime buffer pool every pass draws its chunk,
	// read and tall-output partition buffers from.
	pool bufPool

	// arb admits concurrent passes; planMu serializes the (cheap) plan and
	// cache-publication phases of each pass so the intern table, the result
	// cache, and per-Mat store attachment stay coherent while the (long)
	// execution phases overlap freely.
	arb    *passArbiter
	planMu sync.Mutex

	// cons interns structural node signatures (nil when Config.DisableCSE);
	// rcache is the cross-materialize result cache keyed on them (nil when
	// disabled by DisableCSE or a negative ResultCacheBytes).
	cons   *consTable
	rcache *resultCache

	// remote, when set (SetRemoteExecutor), replaces the local execution
	// phase of every pass with a sharded coordinator: planning and
	// publication still run here, so CSE and the result cache behave
	// identically to single-engine execution.
	remote RemoteExecutor

	// testStoreWrap, when set by tests, wraps every tall-output store the
	// engine creates — the injection seam for write-failure coverage.
	testStoreWrap func(matrix.Store) matrix.Store
	// testSchedEvent, when set by tests, observes scheduler events: kind is
	// "prefetch" (async read-ahead issued for partition p) or "process"
	// (compute started on partition p). Called from worker goroutines, so a
	// hook must be safe for concurrent use when Workers > 1.
	testSchedEvent func(kind string, p int)
}

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Topo == nil {
		cfg.Topo = numa.Default()
	}
	if cfg.PartRows == 0 {
		cfg.PartRows = DefaultPartRows
	}
	if cfg.PartRows <= 0 || cfg.PartRows&(cfg.PartRows-1) != 0 {
		return nil, fmt.Errorf("core: partition rows %d is not a power of two", cfg.PartRows)
	}
	if cfg.PcacheBytes == 0 {
		cfg.PcacheBytes = DefaultPcacheBytes
	}
	if cfg.EM && cfg.FS == nil {
		return nil, fmt.Errorf("core: EM engine requires an SSD array (Config.FS)")
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = DefaultResultCacheBytes
	}
	if cfg.MaxConcurrentPasses == 0 {
		cfg.MaxConcurrentPasses = DefaultMaxConcurrentPasses
	}
	if cfg.MaxConcurrentPasses < 1 {
		cfg.MaxConcurrentPasses = 1
	}
	e := &Engine{cfg: cfg}
	e.arb = newPassArbiter(cfg.Topo, cfg.MaxConcurrentPasses)
	if !cfg.DisableCSE {
		e.cons = newConsTable(DefaultConsTableBytes)
		if cfg.ResultCacheBytes > 0 {
			e.rcache = newResultCache(cfg.ResultCacheBytes)
		}
	}
	return e, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// LastMaterializeStats returns the observability record of the most recent
// Materialize call.
func (e *Engine) LastMaterializeStats() MaterializeStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.lastMat
}

// TotalMaterializeStats returns the engine-lifetime accumulation of every
// Materialize call's record. Snapshot before and after a region and Sub the
// two to attribute I/O to it.
func (e *Engine) TotalMaterializeStats() MaterializeStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.totalMat
}

// PartRows returns the engine-wide I/O partition height.
func (e *Engine) PartRows() int { return e.cfg.PartRows }

// NewStore allocates a tall-matrix store on the engine's preferred backend
// (SAFS when EM, memory otherwise), flat row-major whatever its width: a
// partition is one extent that workers read ahead straight into their
// buffers. Named matrices SaveNamed persists use the same format.
func (e *Engine) NewStore(nrow int64, ncol int) (matrix.Store, error) {
	return e.newStoreOn(nrow, ncol, e.cfg.EM)
}

// NewMemStoreFor allocates an in-memory store with the engine partitioning.
func (e *Engine) NewMemStoreFor(nrow int64, ncol int) (matrix.Store, error) {
	return e.newStoreOn(nrow, ncol, false)
}

func (e *Engine) newStoreOn(nrow int64, ncol int, em bool) (matrix.Store, error) {
	if em {
		name := fmt.Sprintf("mat-%06d", e.fileSeq.Add(1))
		return matrix.NewSAFSStore(e.cfg.FS, name, nrow, ncol, e.cfg.PartRows)
	}
	return matrix.NewMemStore(e.cfg.Topo, nrow, ncol, e.cfg.PartRows)
}

// Generate creates a materialized tall matrix by filling partitions in
// parallel: fill receives a partition's starting row and a row-major
// rows×ncol buffer to populate. Used by runif.matrix/rnorm.matrix and the
// workload generators.
func (e *Engine) Generate(nrow int64, ncol int, dt matrix.DType, fill func(startRow int64, rows int, buf []float64)) (*Mat, error) {
	st, err := e.NewStore(nrow, ncol)
	if err != nil {
		return nil, err
	}
	nparts := st.NumParts()
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, e.cfg.Workers)
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]float64, e.cfg.PartRows*ncol)
			for {
				p := int(next.Add(1) - 1)
				if p >= nparts {
					return
				}
				rows := matrix.PartRowsOf(nrow, e.cfg.PartRows, p)
				start := int64(p) * int64(e.cfg.PartRows)
				fill(start, rows, buf[:rows*ncol])
				if err := st.WritePart(p, buf[:rows*ncol]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.Free()
			return nil, err
		}
	}
	return NewLeaf(st, dt), nil
}

// FromDense materializes an in-memory dense matrix as a tall leaf.
func (e *Engine) FromDense(d *dense.Dense) (*Mat, error) {
	return e.Generate(int64(d.R), d.C, matrix.F64, func(start int64, rows int, buf []float64) {
		copy(buf, d.Data[int(start)*d.C:(int(start)+rows)*d.C])
	})
}

// ToDense materializes m if needed and gathers it into memory. Intended for
// small results and tests; it is the engine half of R's as.matrix.
func (e *Engine) ToDense(m *Mat) (*dense.Dense, error) {
	if !m.Materialized() {
		if err := e.Materialize([]*Mat{m}, nil); err != nil {
			return nil, err
		}
	}
	st := m.Store()
	out := dense.New(int(m.nrow), m.ncol)
	buf := make([]float64, st.PartRows()*m.ncol)
	for p := 0; p < st.NumParts(); p++ {
		rows := matrix.PartRowsOf(m.nrow, st.PartRows(), p)
		if err := st.ReadPart(p, buf[:rows*m.ncol]); err != nil {
			return nil, err
		}
		copy(out.Data[p*st.PartRows()*m.ncol:], buf[:rows*m.ncol])
	}
	return out, nil
}

// Materialize computes the given tall targets and sinks. All targets must
// share one partition dimension; nodes flagged with SetCache inside the DAG
// are materialized alongside. Under FuseMem/FuseCache the whole DAG runs as
// a single parallel pass over the I/O partitions; under FuseNone every
// operation is materialized separately (§3.5 / Figure 10 "base").
func (e *Engine) Materialize(talls []*Mat, sinks []*Sink) error {
	return e.MaterializeCtx(context.Background(), talls, sinks)
}

// MaterializeCtx is Materialize with cancellation: when ctx is cancelled the
// pass aborts (queued passes withdraw from the admission arbiter), in-flight
// write-behind jobs drain, buffer pools stay consistent, and ctx.Err() is
// returned.
func (e *Engine) MaterializeCtx(ctx context.Context, talls []*Mat, sinks []*Sink) error {
	_, err := e.MaterializePass(ctx, talls, sinks, PassOptions{})
	return err
}

// MaterializePass is the concurrent-session materialization entry point: the
// pass waits for admission (bounded in-flight passes, per-pass memory
// reservation), runs with its SAFS I/O fair-queued under the pass's weight,
// and returns the pass's own observability record — exact per-pass
// attribution even while other passes run on the same engine and array.
func (e *Engine) MaterializePass(ctx context.Context, talls []*Mat, sinks []*Sink, opts PassOptions) (MaterializeStats, error) {
	// Drop already-materialized targets.
	var mt []*Mat
	for _, m := range talls {
		if m != nil && !m.Materialized() {
			mt = append(mt, m)
		}
	}
	var sk []*Sink
	for _, s := range sinks {
		if s != nil && !s.Done() {
			sk = append(sk, s)
		}
	}
	if len(mt) == 0 && len(sk) == 0 {
		return MaterializeStats{Fuse: e.cfg.Fuse, Owner: opts.Owner, Batch: opts.Batch}, nil
	}
	leafCols, tallCols := estimateCols(mt, sk)
	return e.runPass(ctx, opts, e.passBytes(leafCols, tallCols), func(ctx context.Context, ms *MaterializeStats, pr passRun) error {
		return e.materialize(ctx, mt, sk, ms, opts, pr)
	})
}

// ExecProgram runs a resolved program below the planner — no CSE, no result
// cache — as one admitted, traced pass over nrow rows: the entry point of
// shard workers, which only ever execute what a coordinator compiled. leaves holds the store behind every leaf instruction (indexed
// like p.Nodes), each nrow × its instruction's width; carries holds the
// cum.col accumulators entering the pass. The caller owns the returned tall
// stores.
func (e *Engine) ExecProgram(ctx context.Context, p *Program, nrow int64, leaves []matrix.Store, carries map[int32][]float64, opts PassOptions) (*ProgramResult, MaterializeStats, error) {
	ms := MaterializeStats{Fuse: e.cfg.Fuse, Owner: opts.Owner, Batch: opts.Batch}
	if !p.resolved {
		return nil, ms, fmt.Errorf("core: program not resolved")
	}
	if nrow < 0 || len(leaves) != len(p.Nodes) {
		return nil, ms, fmt.Errorf("core: %d rows and %d leaf bindings for a %d-instruction program", nrow, len(leaves), len(p.Nodes))
	}
	var leafCols, tallCols int64
	for _, i := range p.leaves {
		st, ncol := leaves[i], int(p.Nodes[i].NCol)
		if st == nil || st.NRow() != nrow || st.NCol() != ncol || st.PartRows() != e.cfg.PartRows {
			return nil, ms, fmt.Errorf("core: leaf instruction %d is not bound to a %dx%d store with partition height %d", i, nrow, ncol, e.cfg.PartRows)
		}
		leafCols += int64(ncol)
	}
	for i, c := range carries {
		if i < 0 || int(i) >= len(p.Nodes) || opKind(p.Nodes[i].Op) != opCumCol || len(c) != int(p.Nodes[i].NCol) {
			return nil, ms, fmt.Errorf("core: carry for instruction %d does not fit a cum.col", i)
		}
	}
	for _, t := range p.Talls {
		tallCols += int64(p.Nodes[t].NCol)
	}
	var res *ProgramResult
	ms, err := e.runPass(ctx, opts, e.passBytes(leafCols, tallCols), func(ctx context.Context, ms *MaterializeStats, pr passRun) error {
		var err error
		res, err = e.execute(ctx, &binding{p: p, nrow: nrow, leaves: leaves, seeds: carries}, ms, pr, opts.Weight)
		return err
	})
	return res, ms, err
}

// runPass is the envelope of every pass: it waits for admission (bounded
// in-flight passes, a reservation of bytes), runs the pass under its trace
// spans and pprof labels, and records the pass's own observability record —
// exact per-pass attribution even while other passes run on the same engine
// and array.
func (e *Engine) runPass(ctx context.Context, opts PassOptions, bytes int64, run func(context.Context, *MaterializeStats, passRun) error) (MaterializeStats, error) {
	ms := MaterializeStats{Fuse: e.cfg.Fuse, Owner: opts.Owner, Batch: opts.Batch}
	passID := e.passSeq.Add(1)
	pt := e.newPassTrace(passID, opts.Owner, opts.Batch)
	pr := passRun{id: passID, owner: opts.Owner, pt: pt}
	rootSp := pt.rootBuf().Begin(trace.KindPass, passID)
	admitSp := pt.rootBuf().Begin(trace.KindAdmit, passID)
	release, err := e.arb.acquire(ctx, opts.Owner, bytes)
	if err != nil {
		pt.rootBuf().End(admitSp)
		pt.rootBuf().End(rootSp)
		pt.finish()
		return ms, err
	}
	pt.rootBuf().End(admitSp)
	defer release()
	t0 := time.Now()
	// Label the orchestrating goroutine (workers label themselves) so CPU
	// profiles segment by pass and session owner. context.Background().Done()
	// is nil, so a nil ctx keeps its no-watcher semantics downstream.
	lctx := ctx
	if lctx == nil {
		lctx = context.Background()
	}
	pprof.Do(lctx, pprof.Labels("flashr_pass", strconv.FormatInt(passID, 10), "flashr_owner", opts.Owner),
		func(lctx context.Context) {
			err = run(lctx, &ms, pr)
		})
	ms.Wall = time.Since(t0)
	e.statsMu.Lock()
	e.lastMat = ms
	e.totalMat.Add(ms)
	e.statsMu.Unlock()
	pt.rootBuf().End(rootSp)
	pt.finish()
	return ms, err
}

// estimateCols sums the widths of the leaves and tall targets a pass over
// these targets reads and writes, for its admission reservation. The walk is
// bounded — an estimate feeding a soft admission budget does not justify
// traversing a pathological DAG forever.
func estimateCols(talls []*Mat, sinks []*Sink) (leafCols, tallCols int64) {
	const maxVisit = 1 << 14
	seen := make(map[uint64]bool)
	var visit func(m *Mat)
	visit = func(m *Mat) {
		if m == nil || seen[m.id] || len(seen) >= maxVisit {
			return
		}
		seen[m.id] = true
		if m.Materialized() {
			leafCols += int64(m.ncol)
			return
		}
		visit(m.a)
		visit(m.b)
	}
	for _, m := range talls {
		tallCols += int64(m.ncol)
		visit(m)
	}
	for _, s := range sinks {
		visit(s.a)
		visit(s.b)
	}
	return leafCols, tallCols
}

// writeBehindDepth bounds a pass's in-flight tall-output partition writes:
// two per worker, clamped to [4, 32].
func (e *Engine) writeBehindDepth() int {
	return min(max(2*e.cfg.Workers, 4), 32)
}

// passBytes approximates a pass's peak buffer footprint for the admission
// reservation: per worker, one I/O partition of every leaf and every tall
// target, plus the write-behind queue's in-flight output partitions.
func (e *Engine) passBytes(leafCols, tallCols int64) int64 {
	perPart := int64(e.cfg.PartRows) * 8
	return perPart * (int64(e.cfg.Workers)*(leafCols+tallCols) +
		int64(e.writeBehindDepth())*tallCols)
}

// materialize runs one materialization: cache-serves and CSE-unifies what it
// can, executes the remaining DAG, and (only on a fully successful pass)
// inserts the fresh results into the result cache. The plan phase (intern
// table, cache lookups, DAG construction) and the publication phase (cache
// inserts, duplicate-sink partials) run under planMu; only the execution
// phase between them overlaps with other passes.
func (e *Engine) materialize(ctx context.Context, mt []*Mat, sk []*Sink, ms *MaterializeStats, opts PassOptions, pr passRun) error {
	lookupSp := pr.pt.rootBuf().Begin(trace.KindCacheLookup, pr.id)
	e.planMu.Lock()
	var sc *sigCtx
	if e.cons != nil {
		// Reset the intern table between passes once it outgrows its budget.
		// Interned ids change across a reset, so the result cache (whose
		// keys embed them) flushes with it.
		if e.cons.overLimit() {
			e.cons.reset()
			if e.rcache != nil {
				e.rcache.flush()
			}
		}
		sc = newSigCtx(e.cons)
	}
	// Serve whole sinks from the result cache, and unify structurally
	// identical sinks within the pass: the canonical one computes, each
	// duplicate receives a clone of its partial after the pass.
	var dupSinks [][2]*Sink
	if sc != nil {
		canon := make(map[uint64]*Sink)
		kept := sk[:0]
		for _, s := range sk {
			kid := sc.sinkID(s)
			if e.rcache != nil {
				if p, n, ok := e.rcache.lookupSink(sc.epoch, sc.sinkKey(s)); ok {
					s.PublishRaw(p)
					ms.CacheHits++
					ms.CacheHitBytes += n
					continue
				}
			}
			if c, ok := canon[kid]; ok {
				dupSinks = append(dupSinks, [2]*Sink{s, c})
				ms.CSEUnifications++
				continue
			}
			canon[kid] = s
			kept = append(kept, s)
		}
		sk = kept
	}
	d, err := e.buildDAG(mt, sk, sc, ms)
	if err != nil {
		e.planMu.Unlock()
		pr.pt.rootBuf().End(lookupSp)
		return err
	}
	if e.rcache != nil && sc != nil {
		// Misses are the cache candidates this pass has to compute.
		ms.CacheMisses += int64(len(d.talls) + len(d.sinks))
	}
	// The pass is compiled once, here, into the program every executor runs.
	var prog *Program
	var leafMats []*Mat
	run := len(d.talls) > 0 || len(d.sinks) > 0
	if run {
		if err = e.validateDAG(d); err == nil {
			prog, leafMats, err = d.compile()
		}
	}
	e.planMu.Unlock()
	lookupSp.Bytes, lookupSp.N = ms.CacheHitBytes, ms.CacheHits
	pr.pt.rootBuf().End(lookupSp)
	if err != nil {
		return err
	}
	if run {
		var res *ProgramResult
		if e.remote != nil {
			// Sharded execution: the coordinator row-partitions the program
			// across its workers and combines their sink partials; no local
			// partition I/O happens on this engine.
			shSp := pr.pt.rootBuf().Begin(trace.KindShard, pr.id)
			res, err = e.remote.RunDAG(ctx, &RemoteDAG{NRow: d.nrow, Prog: prog, Leaves: leafMats, Owner: opts.Owner}, ms)
			shSp.Bytes = ms.ShardBytesSent + ms.ShardBytesRecv
			shSp.N = ms.ShardAggRounds
			pr.pt.rootBuf().End(shSp)
			if err == nil && ms.ShardRecoveries > 0 {
				// Worker recoveries the pass absorbed surface as their own
				// root span so chaos runs are visible in traces.
				rcSp := pr.pt.rootBuf().Begin(trace.KindRecover, pr.id)
				rcSp.N = ms.ShardRecoveries
				pr.pt.rootBuf().End(rcSp)
			}
		} else {
			res, err = e.execute(ctx, d.bind(prog, leafMats), ms, pr, opts.Weight)
		}
		if err != nil {
			return err
		}
		// attachStore refuses a target another pass beat us to (possible only
		// when passes share a node); the loser frees its redundant store
		// rather than clobbering the winner's.
		for t, m := range d.talls {
			if !m.attachStore(res.Talls[t]) {
				res.Talls[t].Free()
			}
		}
		for j, s := range d.sinks {
			s.PublishRaw(res.Partials[j])
		}
	}
	pubSp := pr.pt.rootBuf().Begin(trace.KindPublish, pr.id)
	e.planMu.Lock()
	if run && e.rcache != nil && sc != nil {
		e.insertResults(d, sc, ms)
	}
	for _, pair := range dupSinks {
		pair[0].PublishRaw(pair[1].held().clone())
	}
	e.planMu.Unlock()
	pr.pt.rootBuf().End(pubSp)
	return nil
}

// bind binds the compiled pass to its leaf matrices' stores and records
// which tall targets set.cache placed on the SSD array.
func (d *dag) bind(p *Program, leafMats []*Mat) *binding {
	b := &binding{p: p, nrow: d.nrow, leaves: make([]matrix.Store, len(p.Nodes)), ssd: make([]bool, len(d.talls))}
	for i, m := range leafMats {
		if m != nil {
			b.leaves[i] = unwrapStore(m.Store())
		}
	}
	for t, m := range d.talls {
		m.mu.Lock()
		b.ssd[t] = m.cache && m.cacheEM
		m.mu.Unlock()
	}
	return b
}

// execute runs a bound program at the engine's fusion level under a fresh
// SAFS pass identity, which ties its traffic to this pass for fair queueing
// and exact attribution.
func (e *Engine) execute(ctx context.Context, b *binding, ms *MaterializeStats, pr passRun, weight int) (*ProgramResult, error) {
	var pass *safs.Pass
	if e.cfg.FS != nil {
		pass = e.cfg.FS.RegisterPass(weight)
	}
	if e.cfg.Fuse == FuseNone {
		return e.runUnfused(ctx, b, ms, pass, pr)
	}
	return e.runFused(ctx, b, e.cfg.Fuse, ms, pass, pr)
}

// insertResults records a successful pass's tall-target stores and sink
// partials in the result cache under their pre-pass structural keys.
func (e *Engine) insertResults(d *dag, sc *sigCtx, ms *MaterializeStats) {
	for _, m := range d.talls {
		key, ok := sc.keys[m]
		if !ok {
			continue
		}
		st := m.Store()
		if st == nil {
			continue
		}
		rst, isRef := st.(*refStore)
		if !isRef {
			// Wrap so the cache and the Mat share the store refcounted.
			rst = newRefStore(st)
			m.swapStore(rst)
		}
		ms.CacheEvictions += int64(e.rcache.insertTall(sc.epoch, key, rst, m.nrow, m.ncol, sc.depsOf(m)))
	}
	for _, s := range d.sinks {
		key, ok := sc.sinkKeys[s]
		if !ok {
			continue
		}
		ms.CacheEvictions += int64(e.rcache.insertSink(sc.epoch, key, s.held().clone(), sc.sinkDepsOf(s)))
	}
}

// NoteMutation records an in-place mutation of m's data: it bumps the
// node's content version (changing every signature built over it) and drops
// every cached result that depends on it.
func (e *Engine) NoteMutation(m *Mat) {
	m.NoteMutated()
	if e.rcache != nil {
		e.rcache.invalidateDep(m.id)
	}
}

// FlushResultCache drops every cached sub-DAG result and releases its
// storage references (session close).
func (e *Engine) FlushResultCache() {
	if e.rcache != nil {
		e.rcache.flush()
	}
}

// ResultCacheStats returns the result cache's entry count and resident
// bytes (zero when the cache is disabled).
func (e *Engine) ResultCacheStats() (entries int, bytes int64) {
	if e.rcache == nil {
		return 0, 0
	}
	return e.rcache.stats()
}

// SetElement writes one element of a materialized tall matrix in place —
// the engine half of R's x[i, j] <- v. A store shared with the result cache
// is privatized (copied) first so cached results keep their bit-exact
// values, then the mutation is recorded so no cached result built over the
// old contents can be served again.
func (e *Engine) SetElement(m *Mat, i int64, j int, v float64) error {
	if i < 0 || i >= m.nrow || j < 0 || j >= m.ncol {
		return fmt.Errorf("core: SetElement (%d,%d) out of %dx%d", i, j, m.nrow, m.ncol)
	}
	st := m.Store()
	if st == nil {
		return fmt.Errorf("core: SetElement on virtual matrix %d (materialize first)", m.id)
	}
	if rst, ok := st.(*refStore); ok {
		priv, err := e.copyStore(rst)
		if err != nil {
			return err
		}
		m.swapStore(priv)
		rst.Free()
		st = priv
	}
	p := int(i / int64(e.cfg.PartRows))
	rows := matrix.PartRowsOf(m.nrow, e.cfg.PartRows, p)
	buf := make([]float64, rows*m.ncol)
	if err := st.ReadPart(p, buf); err != nil {
		return err
	}
	r := int(i - int64(p)*int64(e.cfg.PartRows))
	buf[r*m.ncol+j] = v
	if err := st.WritePart(p, buf); err != nil {
		return err
	}
	e.NoteMutation(m)
	return nil
}

// copyStore clones a store partition-by-partition onto the engine's
// preferred backend (copy-on-write for cache-shared stores).
func (e *Engine) copyStore(src matrix.Store) (matrix.Store, error) {
	dst, err := e.NewStore(src.NRow(), src.NCol())
	if err != nil {
		return nil, err
	}
	buf := make([]float64, src.PartRows()*src.NCol())
	for p := 0; p < src.NumParts(); p++ {
		rows := matrix.PartRowsOf(src.NRow(), src.PartRows(), p)
		if err := src.ReadPart(p, buf[:rows*src.NCol()]); err != nil {
			dst.Free()
			return nil, err
		}
		if err := dst.WritePart(p, buf[:rows*src.NCol()]); err != nil {
			dst.Free()
			return nil, err
		}
	}
	return dst, nil
}

// dag is the collected graph for one materialization: every reachable node
// gets a dense slot, and dag.compile lowers the slots into the pass's
// Program.
type dag struct {
	talls []*Mat  // tall materialization targets (incl. cache-flagged nodes)
	sinks []*Sink // sink targets
	nodes []*Mat  // every reachable Mat, leaves included, in topo order (inputs first)
	nrow  int64

	slotOf map[uint64]int // node id → slot (== index into nodes)
}

// buildDAG walks the graph from the targets, collecting nodes in topological
// order and assigning slot indices. With a
// signature context it also (a) serves whole subtrees from the result cache
// by attaching the cached store to the subtree root, and (b) unifies
// structurally identical nodes within the pass onto one execution slot.
func (e *Engine) buildDAG(talls []*Mat, sinks []*Sink, sc *sigCtx, ms *MaterializeStats) (*dag, error) {
	d := &dag{slotOf: make(map[uint64]int)}
	// consSlot maps an interned structural id to the slot of the first node
	// carrying it: later nodes with the same id reuse that slot.
	consSlot := make(map[uint64]int)
	var visit func(m *Mat) error
	visit = func(m *Mat) error {
		if m == nil {
			return nil
		}
		if _, ok := d.slotOf[m.id]; ok {
			return nil
		}
		if sc != nil && e.rcache != nil && !m.Materialized() && m.kind != opLeaf && m.kind != opConst {
			// The key is computed before any attach below so it reflects the
			// node's structural (interior) form.
			key := sc.keyOf(m)
			if st, n, ok := e.rcache.lookupTall(sc.epoch, key, m.nrow, m.ncol); ok {
				if m.attachStore(st) {
					ms.CacheHits++
					ms.CacheHitBytes += n
				} else {
					st.Free() // lost the race: drop the retained reference
				}
			}
		}
		// Mark before recursion; inputs carry distinct ids so the
		// placeholder value is fixed up right after.
		d.slotOf[m.id] = -1
		if !m.Materialized() {
			if err := visit(m.a); err != nil {
				return err
			}
			if err := visit(m.b); err != nil {
				return err
			}
			m.mu.Lock()
			cached := m.cache
			m.mu.Unlock()
			if cached {
				d.talls = append(d.talls, m)
			}
			if sc != nil && m.kind != opLeaf {
				id := sc.idOf(m)
				if slot, ok := consSlot[id]; ok {
					// Structurally identical to an earlier node: share its
					// slot and don't schedule a second evaluation. A
					// cache-flagged duplicate keeps its own store (appended
					// to d.talls above), fed from the shared slot.
					d.slotOf[m.id] = slot
					ms.CSEUnifications++
					return nil
				}
				consSlot[id] = len(d.nodes)
			}
		}
		d.slotOf[m.id] = len(d.nodes)
		d.nodes = append(d.nodes, m)
		return nil
	}
	for _, m := range talls {
		if err := visit(m); err != nil {
			return nil, err
		}
		d.talls = append(d.talls, m)
	}
	for _, s := range sinks {
		if err := visit(s.a); err != nil {
			return nil, err
		}
		if err := visit(s.b); err != nil {
			return nil, err
		}
		d.sinks = append(d.sinks, s)
	}
	// Dedup talls (a node may be both explicit target and cache-flagged).
	dedup := d.talls[:0]
	seenT := map[uint64]bool{}
	for _, m := range d.talls {
		if !seenT[m.id] && !m.Materialized() {
			seenT[m.id] = true
			dedup = append(dedup, m)
		}
	}
	d.talls = dedup
	return d, nil
}

// validateDAG checks the single-partition-dimension invariant (§3.5: "all
// matrices in a DAG except sink matrices share the same partition dimension
// and the same I/O partition size").
func (e *Engine) validateDAG(d *dag) error {
	d.nrow = -1
	for _, m := range d.nodes {
		if d.nrow == -1 {
			d.nrow = m.nrow
		}
		if m.nrow != d.nrow {
			return fmt.Errorf("core: DAG mixes partition dimensions %d and %d", d.nrow, m.nrow)
		}
		if st := m.Store(); st != nil && st.PartRows() != e.cfg.PartRows {
			return fmt.Errorf("core: leaf %d has partition height %d, engine uses %d",
				m.id, st.PartRows(), e.cfg.PartRows)
		}
	}
	if d.nrow < 0 {
		return fmt.Errorf("core: empty DAG")
	}
	return nil
}

// runUnfused runs every computing instruction as its own pass, then every
// sink as its own pass — one parallel pass and one intermediate matrix per
// operation (Figure 10 "base", and how Spark-style engines execute). Each
// pass runs a one-instruction program whose stored operands are leaves;
// intermediates no tall target names are freed when the pass ends.
func (e *Engine) runUnfused(ctx context.Context, b *binding, ms *MaterializeStats, pass *safs.Pass, pr passRun) (*ProgramResult, error) {
	p := b.p
	stores := append([]matrix.Store(nil), b.leaves...)
	res := &ProgramResult{Talls: make([]matrix.Store, len(p.Talls)), Carries: make(map[int32][]float64)}
	var temps []matrix.Store
	defer func() {
		for _, st := range temps {
			st.Free()
		}
	}()
	fail := func(err error) (*ProgramResult, error) {
		for _, st := range res.Talls {
			if st != nil {
				st.Free()
			}
		}
		return nil, err
	}
	run := func(sub *Program, leaves []matrix.Store, ssd []bool, seeds map[int32][]float64) (*ProgramResult, error) {
		if err := sub.Resolve(); err != nil {
			return nil, err
		}
		return e.runFused(ctx, &binding{p: sub, nrow: b.nrow, leaves: leaves, ssd: ssd, seeds: seeds}, FuseMem, ms, pass, pr)
	}
	for _, i := range p.steps {
		n := p.Nodes[i]
		if op := opKind(n.Op); op == opLeaf || op == opConst {
			continue
		}
		sub, leaves := isolate(p, stores, &n.A, &n.B)
		self := int32(len(sub.Nodes))
		sub.Nodes = append(sub.Nodes, n)
		var ssd []bool
		var positions []int
		for t, ti := range p.Talls {
			if ti == i {
				positions = append(positions, t)
				sub.Talls = append(sub.Talls, self)
				ssd = append(ssd, b.ssd != nil && b.ssd[t])
			}
		}
		if len(positions) == 0 {
			sub.Talls, ssd = []int32{self}, []bool{false}
		}
		var seeds map[int32][]float64
		if opKind(n.Op) == opCumCol {
			sub.Cums = []int32{self}
			if c, ok := b.seeds[i]; ok {
				seeds = map[int32][]float64{self: c}
			}
		}
		r, err := run(sub, append(leaves, nil), ssd, seeds)
		if err != nil {
			return fail(err)
		}
		stores[i] = r.Talls[0]
		if len(positions) == 0 {
			temps = append(temps, r.Talls[0])
		}
		for k, t := range positions {
			res.Talls[t] = r.Talls[k]
		}
		if c, ok := r.Carries[self]; ok {
			res.Carries[i] = c
		}
	}
	// Every aggregation materializes in its own pass too ("Spark
	// materializes operations such as aggregation separately", §4.3).
	for _, s := range p.Sinks {
		sub, leaves := isolate(p, stores, &s.A, &s.B)
		sub.Sinks = []ProgramSink{s}
		r, err := run(sub, leaves, nil, nil)
		if err != nil {
			return fail(err)
		}
		res.Partials = append(res.Partials, r.Partials[0])
	}
	return res, nil
}

// isolate starts the one-operation program for operands *a and *b of p,
// rewriting both to index it: a stored operand becomes a leaf bound to its
// store, a constant is copied inline. It returns the program and its leaf
// bindings.
func isolate(p *Program, stores []matrix.Store, a, b *int32) (*Program, []matrix.Store) {
	sub := &Program{}
	var leaves []matrix.Store
	at := make(map[int32]int32, 2)
	for _, op := range []*int32{a, b} {
		if *op < 0 {
			continue
		}
		if j, ok := at[*op]; ok {
			*op = j
			continue
		}
		n := p.Nodes[*op]
		st := stores[*op]
		if st != nil {
			n = ProgramNode{Op: uint8(opLeaf), A: -1, B: -1, DT: n.DT, NCol: n.NCol}
		}
		at[*op] = int32(len(sub.Nodes))
		*op = int32(len(sub.Nodes))
		sub.Nodes = append(sub.Nodes, n)
		leaves = append(leaves, st)
	}
	return sub, leaves
}
