// Package flashr is a Go reproduction of FlashR (Zheng et al., PPoPP 2018):
// a matrix-oriented programming framework that parallelizes R-base-style
// matrix operations and scales them beyond memory with SSDs.
//
// The public surface mirrors the paper's programming interface (§3.1):
// matrix creation (runif.matrix, rnorm.matrix, load.dense), the overridden
// R-base matrix functions of Table 2 (arithmetic, sum/rowSums/colSums,
// pmin/pmax, sweep, %*%, t, rbind/cbind, unique/table, cumsum, [ ]), the
// generalized operations of Table 1 (sapply, mapply, agg, agg.row/col,
// groupby.row/col, inner.prod, cum.row/col), and the tuning functions of
// Table 3 (materialize, set.cache, as.vector, as.matrix).
//
// Everything is lazily evaluated: operations build DAGs of virtual matrices
// and the engine materializes a whole DAG in one parallel pass when a result
// is forced (as.vector/as.matrix, element access, unique/table) or when
// MaterializeCtx is called. A Session selects in-memory (FlashR-IM) or SSD
// (FlashR-EM) execution and the operation-fusion level.
//
// Sessions may share one engine: parent.Share(owner, weight) builds a
// session whose materialization passes run on parent's engine and SSD array,
// admitted by the engine's pass arbiter and fair-queued against the other
// sessions' I/O. Each session keeps its own pending-sink batch, owner label,
// bandwidth weight, and MaterializeStats, so concurrent sessions get exact
// per-session attribution.
package flashr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/safs"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Options configures the session NewSession builds. The zero value is an
// in-memory session with every default:
//
//	s, err := flashr.NewSession(flashr.Options{Workers: 8, EM: true, SSDDirs: dirs})
//
// Sessions sharing an existing engine come from Session.Share instead.
type Options struct {
	// Workers is the number of evaluation goroutines (0 = GOMAXPROCS).
	Workers int
	// Fuse selects the operation-fusion level (default FuseCache; the
	// lower levels exist for the Figure 10 ablation).
	Fuse core.FuseLevel
	// EM stores matrices on the SSD array instead of memory (FlashR-EM).
	EM bool
	// SSDDirs are the drive directories of the simulated SSD array;
	// required when EM is set. safs.DriveDirs names them under one root.
	SSDDirs []string
	// ReadMBps / WriteMBps throttle the SSD array's aggregate bandwidth
	// (0 = unthrottled).
	ReadMBps  float64
	WriteMBps float64
	// PartRows overrides the I/O partition height (power of two).
	PartRows int
	// PcacheBytes overrides the processor-cache partition budget.
	PcacheBytes int
	// DisableCSE turns off structural hash-consing: no common-subexpression
	// unification at DAG-build time and no sub-DAG result cache (the
	// ablation knob for the equivalence suites).
	DisableCSE bool
	// ResultCacheBytes bounds the cross-materialize sub-DAG result cache
	// (0 = core.DefaultResultCacheBytes; negative disables the cache while
	// keeping within-pass CSE unification on).
	ResultCacheBytes int64
	// Owner labels this session's materialization passes for per-pass
	// stats attribution and fair admission on a shared engine.
	Owner string
	// MaxConcurrentPasses bounds materialization passes running at once on
	// this session's engine (0 = core.DefaultMaxConcurrentPasses; 1
	// serializes passes as before the pass arbiter existed).
	MaxConcurrentPasses int
	// Sharding, when set, row-partitions every materialization across shard
	// workers: in-process engines (ShardConfig.Shards) or TCP worker
	// processes (ShardConfig.Addrs). Planning — CSE, the result cache —
	// still runs on this session's engine; only execution is
	// distributed. Incompatible with EM on the session itself: in sharded
	// mode the array, if any, belongs to the workers.
	Sharding *ShardConfig
}

// ShardConfig aliases the sharded coordinator's configuration for
// Options.Sharding.
type ShardConfig = shard.Config

// FuseLevel aliases the engine's fusion-level type for Options.Fuse.
type FuseLevel = core.FuseLevel

// The engine fusion levels, re-exported for Options.Fuse.
const (
	FuseNone  = core.FuseNone
	FuseMem   = core.FuseMem
	FuseCache = core.FuseCache
)

// Session owns an execution engine plus the set of not-yet-materialized sink
// matrices. The session grows DAGs as large as possible: every pending sink
// sharing a partition dimension is materialized in the same parallel pass
// the first time any of them is forced (§3.4).
type Session struct {
	eng *core.Engine
	fs  *safs.FS
	// coord is the sharded-execution coordinator (nil for local execution);
	// owned by the session and closed after the result cache is flushed,
	// because cache-held shard-backed stores free their worker copies over
	// the coordinator's transports.
	coord *shard.Coordinator

	// owner and weight tag every materialization pass this session submits;
	// sharedEng marks a session built with Share.
	owner     string
	weight    int
	sharedEng bool

	mu      sync.Mutex
	pending []*core.Sink
	// named tracks the engine leaves opened from each named on-array matrix,
	// so SetNamed can invalidate cached results built over them when the
	// name's files are overwritten.
	named map[string][]*core.Mat

	// Session-local stats: the record of the session's own passes, distinct
	// from the engine-lifetime totals when several sessions share an engine.
	statsMu  sync.Mutex
	lastMat  MaterializeStats
	totalMat MaterializeStats

	// metrics is the session-local registry (built on first Metrics call):
	// the session's own pass totals labeled with its owner.
	metricsOnce sync.Once
	metrics     *trace.Registry

	// plan is non-nil on a plan-only session (see PlanOnly).
	plan *planState
}

// ErrPlanOnly is returned by every operation on a plan-only session that
// would read matrix data, hand it to the caller, or touch a file.
var ErrPlanOnly = errors.New("flashr: plan-only session: operation reads data or touches a file")

// planMaxElems bounds the in-memory work a plan-only session does, counted
// in element operations over the whole session: every read of a small
// operand (no small op's result outgrows the operands it reads), every
// small transpose, every zero placeholder a pending sink gets, and m·k·n for
// a product of two smalls. A program that needs more exhausts the session:
// its work bytes saturate at math.MaxInt64, so it prices as unbounded, and
// every later charge fails with ErrPlanOnly. Pricing any program thus
// allocates and computes on the order of this many elements.
const planMaxElems = 1 << 24

type planState struct {
	seen  map[any]bool // nodes already counted toward work
	work  int64        // saturates at math.MaxInt64
	elems int64        // in-memory element operations charged so far
}

// PlanOnly returns a plan-only session over s's engine, and a function
// reporting the bytes of every distinct matrix node built on it so far. A
// plan-only session builds the same DAG nodes a live one would but never
// runs a pass, reads data or touches a file: creation calls return
// zero-storage leaves of the requested shape, an operator that needs a
// pending sink's value sees zeros of the sink's shape, MaterializeCtx and
// SetCache do nothing, and anything else that would read data or touch a
// file fails with ErrPlanOnly. Its in-memory work on small matrices is
// capped; a program past the cap fails with ErrPlanOnly and its work bytes
// read math.MaxInt64. It has its own pending batch; bind live matrices to it
// with FM.Rebind.
func (s *Session) PlanOnly() (plan *Session, workBytes func() int64) {
	p := &Session{eng: s.eng, sharedEng: true, plan: &planState{seen: map[any]bool{}}}
	return p, func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.plan.work
	}
}

// planNode counts an r×c node toward a plan-only session's work bytes,
// once per distinct node.
func (s *Session) planNode(node any, r, c int64) {
	if s.plan == nil || r <= 0 || c <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plan
	if p.seen[node] {
		return
	}
	p.seen[node] = true
	if r > (math.MaxInt64-p.work)/8/c {
		p.work = math.MaxInt64
		return
	}
	p.work += r * c * 8
}

// planCharge charges r·c in-memory element operations to a plan-only
// session before it does them, and exhausts the session once the total
// would pass planMaxElems. It is a no-op on a live session.
func (s *Session) planCharge(r, c int64) error {
	if s.plan == nil || r <= 0 || c <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plan
	if r > (planMaxElems-p.elems)/c {
		p.elems, p.work = planMaxElems, math.MaxInt64
		return fmt.Errorf("%w: in-memory work exceeds %d element operations", ErrPlanOnly, planMaxElems)
	}
	p.elems += r * c
	return nil
}

// noteNamed records that m is backed by the named matrix's files.
func (s *Session) noteNamed(name string, m *core.Mat) {
	s.mu.Lock()
	if s.named == nil {
		s.named = make(map[string][]*core.Mat)
	}
	s.named[name] = append(s.named[name], m)
	s.mu.Unlock()
}

// NewSession builds a session with its own engine (and SSD array, when
// SSDDirs is set).
func NewSession(o Options) (*Session, error) {
	if o.Sharding != nil && o.EM {
		return nil, fmt.Errorf("flashr: sharded sessions keep matrices worker-resident; configure EM on the workers, not the coordinator")
	}
	if o.EM && len(o.SSDDirs) == 0 {
		return nil, fmt.Errorf("flashr: EM session requires SSDDirs")
	}
	ecfg := core.Config{
		Workers:             o.Workers,
		Fuse:                o.Fuse,
		EM:                  o.EM,
		PartRows:            o.PartRows,
		PcacheBytes:         o.PcacheBytes,
		DisableCSE:          o.DisableCSE,
		ResultCacheBytes:    o.ResultCacheBytes,
		MaxConcurrentPasses: o.MaxConcurrentPasses,
	}
	s := &Session{owner: o.Owner}
	if len(o.SSDDirs) > 0 {
		fs, err := safs.Open(safs.Config{
			Drives:    o.SSDDirs,
			ReadMBps:  o.ReadMBps,
			WriteMBps: o.WriteMBps,
		})
		if err != nil {
			return nil, err
		}
		s.fs, ecfg.FS = fs, fs
	}
	eng, err := core.NewEngine(ecfg)
	if err == nil && o.Sharding != nil {
		if s.coord, err = shard.NewCoordinator(*o.Sharding, ecfg); err == nil {
			eng.SetRemoteExecutor(s.coord)
		}
	}
	if err != nil {
		if s.fs != nil {
			s.fs.Close()
		}
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// Share returns a new session that runs its passes on s's engine and SSD
// array instead of building its own. Engine-level settings (workers, fusion,
// drives, bandwidth, partition height, …) are s's; owner labels the new
// session's passes and weight is its share of SAFS bandwidth relative to the
// engine's other sessions (values < 1 mean 1). Matrices remain tied to the
// engine, so FMs may flow between sessions sharing one; closing a shared
// session never closes the array or drops the engine's result cache.
func (s *Session) Share(owner string, weight int) *Session {
	return &Session{eng: s.eng, fs: s.fs, owner: owner, weight: weight, sharedEng: true}
}

// NewMemSession builds an in-memory session (FlashR-IM) with default
// settings.
func NewMemSession() *Session {
	s, err := NewSession(Options{})
	if err != nil {
		panic(err) // cannot fail without EM options
	}
	return s
}

// Engine exposes the underlying execution engine (benchmarks and tests).
func (s *Session) Engine() *core.Engine { return s.eng }

// Coordinator exposes the sharded-execution coordinator, or nil for a local
// session (benchmarks, the conformance suite).
func (s *Session) Coordinator() *shard.Coordinator { return s.coord }

// Owner returns the session's pass-attribution label.
func (s *Session) Owner() string { return s.owner }

// MaterializeStats aliases the engine's per-materialization observability
// record (I/O volume, prefetch hit rate, write-queue stall vs. write time,
// phase wall times).
type MaterializeStats = core.MaterializeStats

// LastMaterializeStats returns the record of this session's most recent
// materialization pass. On a shared engine this is the session's own pass,
// not whichever pass the engine ran last.
func (s *Session) LastMaterializeStats() MaterializeStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.lastMat
}

// TotalMaterializeStats returns the session-lifetime accumulated record;
// snapshot before and after a region and Sub the two to attribute I/O. On a
// shared engine the per-session totals of every session sum to the engine's
// total (Engine().TotalMaterializeStats()).
func (s *Session) TotalMaterializeStats() MaterializeStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.totalMat
}

// TraceTo starts execution tracing on the session's engine and returns a
// stop function that ends tracing and writes everything recorded since as
// Chrome trace_event JSON to w (loadable in chrome://tracing or Perfetto;
// each pass appears as a process named with its owner). On a shared engine
// the trace covers every session's passes — owner labels tell them apart.
//
//	stop := s.TraceTo(f)
//	... run the workload ...
//	err := stop()
func (s *Session) TraceTo(w io.Writer) (stop func() error) {
	s.eng.StartTrace()
	return func() error {
		d := s.eng.StopTrace()
		if d == nil {
			return nil
		}
		return trace.WriteChrome(w, d)
	}
}

// Metrics returns the session's metrics registry: the engine-wide registry
// (engine totals, scheduler gauges, NUMA topology, SSD array) plus this
// session's own pass totals labeled owner="<owner>". Render it with WriteTo
// or serve it with trace.Handler.
func (s *Session) Metrics() *trace.Registry {
	s.metricsOnce.Do(func() {
		reg := trace.NewRegistry()
		if s.owner != "" {
			core.RegisterStatsMetrics(reg, s.owner, s.TotalMaterializeStats)
		}
		reg.Include(s.eng.Metrics())
		s.metrics = reg
	})
	return s.metrics
}

// Wrap adopts an existing engine matrix (e.g. a leaf over a store opened
// from an SSD array) into the session. The matrix's partition height must
// match the session engine's.
func (s *Session) Wrap(m *core.Mat) *FM { return s.bigFM(m) }

// FS exposes the SSD array, or nil for an in-memory session.
func (s *Session) FS() *safs.FS { return s.fs }

// Close drops the session's result cache and releases the SSD array if the
// session owns one. Closing a session built with Share touches
// neither the shared engine's cache nor its array.
func (s *Session) Close() error {
	if s.sharedEng {
		return nil
	}
	// Flush before closing the coordinator: cache entries may hold
	// shard-backed stores whose Free is an RPC over its transports.
	s.eng.FlushResultCache()
	if s.coord != nil {
		s.coord.Close()
	}
	if s.fs != nil {
		return s.fs.Close()
	}
	return nil
}

// deferSink registers a sink for batched materialization.
func (s *Session) deferSink(k *core.Sink) {
	s.mu.Lock()
	s.pending = append(s.pending, k)
	s.mu.Unlock()
}

// FlushCtx materializes every pending sink under ctx: the session's batch
// runs as one admission-arbitrated pass per partition dimension, and a
// cancelled ctx aborts the remaining passes with ctx.Err().
func (s *Session) FlushCtx(ctx context.Context) error { return s.flushCtx(ctx) }

// FlushBatchCtx is FlushCtx with request-batch attribution: every pass it
// submits carries the given batch label in its PassOptions, so the pass's
// MaterializeStats and trace metadata name the coalesced request batch it
// materialized for. Serving front-ends use this to prove (and debug) that
// N client requests became fewer than N engine passes.
//
// Tall matrix results the batch intends to hand out (result handles) may be
// passed as extra targets: still-virtual tall matrices among them
// materialize in the same shared passes as the batch's sinks, so returning a
// reference to a matrix-valued result costs no pass of its own. Transposed
// views, small matrices, and already-materialized talls are skipped.
func (s *Session) FlushBatchCtx(ctx context.Context, batch string, results ...*FM) error {
	var talls []*core.Mat
	for _, x := range results {
		if x != nil && x.big != nil && !x.trans {
			talls = append(talls, x.big)
		}
	}
	return s.flushBatchCtx(ctx, batch, talls...)
}

// materializeNow submits one pass to the engine under this session's owner
// label, bandwidth weight, and (when flushing on behalf of a request batch)
// batch label, and folds the pass's record into the session-local stats.
func (s *Session) materializeNow(ctx context.Context, batch string, talls []*core.Mat, sinks []*core.Sink) error {
	if s.plan != nil {
		return ErrPlanOnly
	}
	ms, err := s.eng.MaterializePass(ctx, talls, sinks, core.PassOptions{Owner: s.owner, Weight: s.weight, Batch: batch})
	if ms.Wall > 0 { // an empty pass (nothing to run) leaves no record
		s.statsMu.Lock()
		s.lastMat = ms
		s.totalMat.Add(ms)
		s.statsMu.Unlock()
	}
	return err
}

// flush materializes every pending sink (plus the given tall targets),
// grouping by partition dimension so each group is one fused pass.
func (s *Session) flush(talls ...*core.Mat) error {
	return s.flushCtx(context.Background(), talls...)
}

func (s *Session) flushCtx(ctx context.Context, talls ...*core.Mat) error {
	return s.flushBatchCtx(ctx, "", talls...)
}

func (s *Session) flushBatchCtx(ctx context.Context, batch string, talls ...*core.Mat) error {
	if s.plan != nil {
		return ErrPlanOnly
	}
	s.mu.Lock()
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()

	groups := map[int64]*struct {
		sinks []*core.Sink
		talls []*core.Mat
	}{}
	add := func(nrow int64) *struct {
		sinks []*core.Sink
		talls []*core.Mat
	} {
		g, ok := groups[nrow]
		if !ok {
			g = &struct {
				sinks []*core.Sink
				talls []*core.Mat
			}{}
			groups[nrow] = g
		}
		return g
	}
	for _, k := range pend {
		if k.Done() {
			continue
		}
		g := add(sinkNRow(k))
		g.sinks = append(g.sinks, k)
	}
	for _, m := range talls {
		if m == nil || m.Materialized() {
			continue
		}
		g := add(m.NRow())
		g.talls = append(g.talls, m)
	}
	for _, g := range groups {
		if err := s.materializeNow(ctx, batch, g.talls, g.sinks); err != nil {
			return err
		}
	}
	return nil
}

// sinkNRow recovers the partition dimension a sink aggregates over.
func sinkNRow(k *core.Sink) int64 { return k.Input().NRow() }

// forceSink materializes a specific sink (flushing the whole pending batch
// with it) and returns its result. A plan-only session returns zeros of the
// sink's shape instead and leaves the sink untouched.
func (s *Session) forceSink(k *core.Sink) (*dense.Dense, error) {
	if !k.Done() && s.plan != nil {
		r, c := k.Shape()
		if err := s.planCharge(int64(r), int64(c)); err != nil {
			return nil, err
		}
		return dense.New(r, c), nil
	}
	if !k.Done() {
		if err := s.flush(); err != nil {
			return nil, err
		}
		if !k.Done() {
			// The sink was created outside the pending list (defensive).
			if err := s.materializeNow(context.Background(), "", nil, []*core.Sink{k}); err != nil {
				return nil, err
			}
		}
	}
	return k.Result(), nil
}
