package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flashr "repro"
	"repro/internal/repl"
	"repro/internal/trace"
)

// Quota errors surfaced as HTTP 429s.
var (
	errSessionLimit  = errors.New("serve: tenant session limit reached")
	errInflightLimit = errors.New("serve: tenant in-flight request limit reached")
)

// Defaults for zero Config fields.
const (
	DefaultMaxBatch             = 16
	DefaultBatchWait            = 2 * time.Millisecond
	DefaultQueueDepth           = 256
	DefaultMaxSessionsPerTenant = 64
	DefaultMaxInflightPerTenant = 128
	DefaultMaxProgramBytes      = 64 << 10
	DefaultSessionIdle          = 15 * time.Minute
)

// Config parameterizes a Server.
type Config struct {
	// Root is the engine-owning flashr session every tenant session
	// shares. The server does not close it; the caller owns its lifetime.
	Root *flashr.Session
	// MaxBatch bounds how many requests one batch may coalesce
	// (0 = DefaultMaxBatch).
	MaxBatch int
	// BatchWait is the longest the first request of a batch waits for
	// company before the batch flushes (0 = DefaultBatchWait).
	BatchWait time.Duration
	// BatchWaitFloor is the shortest flush window (0 = BatchWait, a fixed
	// window). Below BatchWait the window is rate-adaptive: it tracks an
	// EWMA of the aggregate request arrival rate and sizes itself to the
	// expected time for (MaxBatch-1) more arrivals, clamped to
	// [BatchWaitFloor, BatchWait].
	BatchWaitFloor time.Duration
	// QueueDepth bounds the accept queue; requests beyond it are shed
	// with 429 (0 = DefaultQueueDepth).
	QueueDepth int
	// MaxSessionsPerTenant bounds live serving sessions per tenant
	// (0 = DefaultMaxSessionsPerTenant, negative = unlimited).
	MaxSessionsPerTenant int
	// MaxInflightPerTenant bounds a tenant's accepted-but-unanswered
	// requests (0 = DefaultMaxInflightPerTenant, negative = unlimited).
	MaxInflightPerTenant int
	// MaxProgramBytes bounds one submitted program
	// (0 = DefaultMaxProgramBytes).
	MaxProgramBytes int
	// SessionIdle expires serving sessions idle this long
	// (0 = DefaultSessionIdle, negative = never).
	SessionIdle time.Duration
	// ResultIdle expires unreleased result handles idle this long
	// (0 = SessionIdle, negative = never). Released and expired handles
	// linger as tombstones (answering 410) for one further ResultIdle
	// before lookups return 404 again.
	ResultIdle time.Duration
	// JanitorInterval overrides the idle-sweep period (0 = SessionIdle/4
	// clamped to [1s, 30s]).
	JanitorInterval time.Duration
	// TenantWeights maps tenant names to SAFS bandwidth weights for the
	// engine's fair queueing (absent or <1 means weight 1).
	TenantWeights map[string]int
	// AuthTokens maps bearer tokens to tenant names. When non-empty, every
	// /v2 request must present Authorization: Bearer <token> and is bound to
	// that token's tenant; when empty, authentication is off and the server
	// trusts the client-asserted tenant (development mode).
	AuthTokens map[string]string
	// MaxEstimatedBytes rejects programs whose estimated working set (the
	// bytes of the DAG the program builds on a plan-only session, see
	// repl.Env.EstimateProgram) exceeds it with 413 before any pass runs
	// (0 = no budget). A program with no estimate is refused when the
	// statements priced before the one that failed already exceed it, and
	// admitted otherwise.
	MaxEstimatedBytes int64
	// MaxPinnedBytesPerTenant bounds the bytes a tenant may hold in live
	// result handles; programs whose estimated result bytes would exceed
	// it are rejected with 413 at admission, and pinning enforces it again
	// exactly at handle-creation time (0 = unlimited).
	MaxPinnedBytesPerTenant int64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.BatchWait == 0 {
		c.BatchWait = DefaultBatchWait
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxSessionsPerTenant == 0 {
		c.MaxSessionsPerTenant = DefaultMaxSessionsPerTenant
	}
	if c.MaxInflightPerTenant == 0 {
		c.MaxInflightPerTenant = DefaultMaxInflightPerTenant
	}
	if c.MaxProgramBytes == 0 {
		c.MaxProgramBytes = DefaultMaxProgramBytes
	}
	if c.SessionIdle == 0 {
		c.SessionIdle = DefaultSessionIdle
	}
	if c.ResultIdle == 0 {
		c.ResultIdle = c.SessionIdle
	}
	if c.BatchWaitFloor <= 0 {
		c.BatchWaitFloor = c.BatchWait
	}
	if c.JanitorInterval == 0 {
		c.JanitorInterval = c.SessionIdle / 4
		if c.JanitorInterval < time.Second {
			c.JanitorInterval = time.Second
		}
		if c.JanitorInterval > 30*time.Second {
			c.JanitorInterval = 30 * time.Second
		}
	}
	return c
}

// Server is the multi-tenant serving front-end over one shared engine. It
// implements http.Handler; the caller wraps it in an http.Server and, on
// shutdown, calls Drain after the HTTP listener stops accepting.
type Server struct {
	cfg     Config
	reg     *trace.Registry
	table   *sessionTable
	batcher *Batcher
	results *resultTable
	rates   *rateController
	mux     *http.ServeMux

	batches        *trace.Counter
	batchSize      *trace.Histogram
	expired        *trace.Counter
	expiredHandles *trace.Counter
	authFailures   *trace.Counter
	accepted       atomic.Int64
	answered       atomic.Int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds and starts a server over cfg.Root.
func New(cfg Config) (*Server, error) {
	if cfg.Root == nil {
		return nil, errors.New("serve: Config.Root is required")
	}
	cfg = cfg.withDefaults()
	reg := trace.NewRegistry()
	sv := &Server{
		cfg:         cfg,
		reg:         reg,
		table:       newSessionTable(cfg.Root, cfg.TenantWeights, reg),
		results:     newResultTable(),
		rates:       newRateController(cfg.BatchWaitFloor, cfg.BatchWait, cfg.MaxBatch),
		mux:         http.NewServeMux(),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	sv.batches = reg.Counter("flashr_serve_batches_total", "Request batches executed.")
	sv.batchSize = trace.NewHistogram(1, 2, 4, 8, 16, 32, 64)
	reg.AddHistogram("flashr_serve_batch_size", "Requests coalesced per batch.", sv.batchSize)
	sv.expired = reg.Counter("flashr_serve_expired_sessions_total", "Serving sessions removed by idle expiry.")
	sv.expiredHandles = reg.Counter("flashr_serve_expired_handles_total", "Result handles released by idle expiry.")
	sv.authFailures = reg.Counter("flashr_serve_auth_failures_total", "Requests refused for missing or invalid bearer tokens.")
	reg.CounterFunc("flashr_serve_accepted_total", "Requests accepted across all tenants.",
		func() float64 { return float64(sv.accepted.Load()) })
	reg.CounterFunc("flashr_serve_answered_total", "Responses delivered across all tenants.",
		func() float64 { return float64(sv.answered.Load()) })
	window := func() time.Duration { return sv.rates.window(time.Now()) }
	sv.batcher = NewBatcher(cfg.MaxBatch, window, cfg.QueueDepth, sv.runBatch)
	reg.GaugeFunc("flashr_serve_batch_window_seconds", "Current flush window.",
		func() float64 { return window().Seconds() })
	reg.GaugeFunc("flashr_serve_arrival_rate", "Aggregate EWMA request arrival rate (requests/s).",
		func() float64 { return sv.rates.rate(time.Now()) })
	reg.GaugeFunc("flashr_serve_queue_depth", "Requests waiting in the accept queue.",
		func() float64 { return float64(len(sv.batcher.in)) })
	reg.Include(cfg.Root.Engine().Metrics())

	sv.mux.HandleFunc("POST /v2/sessions", sv.handleCreateSession)
	sv.mux.HandleFunc("GET /v2/sessions/{id}", sv.handleGetSession)
	sv.mux.HandleFunc("DELETE /v2/sessions/{id}", sv.handleDeleteSession)
	sv.mux.HandleFunc("POST /v2/sessions/{id}/eval", sv.handleEval)
	sv.mux.HandleFunc("POST /v2/sessions/{id}/eval/stream", sv.handleEvalStream)
	sv.mux.HandleFunc("GET /v2/results/{h}", sv.handleFetchResult)
	sv.mux.HandleFunc("DELETE /v2/results/{h}", sv.handleReleaseResult)
	sv.mux.Handle("GET /metrics", trace.Handler(reg))
	sv.mux.HandleFunc("GET /healthz", sv.handleHealthz)
	go sv.janitor()
	return sv, nil
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { sv.mux.ServeHTTP(w, r) }

// Metrics exposes the server registry (per-tenant serving metrics, batch
// counters, and the engine registry underneath).
func (sv *Server) Metrics() *trace.Registry { return sv.reg }

// Accepted and Answered report the lifetime request accounting used by the
// drain proof: after a clean drain the two are equal.
func (sv *Server) Accepted() int64 { return sv.accepted.Load() }
func (sv *Server) Answered() int64 { return sv.answered.Load() }

// Drain stops accepting work, waits (bounded by ctx) for every accepted
// request to be answered, and stops the janitor. The HTTP listener should
// already be shut down (or shutting down) when Drain is called; in-flight
// handlers block on their responses, so http.Server.Shutdown and Drain
// together guarantee no accepted request is dropped.
func (sv *Server) Drain(ctx context.Context) error {
	err := sv.batcher.Drain(ctx)
	select {
	case <-sv.janitorDone:
	default:
		close(sv.janitorStop)
		<-sv.janitorDone
	}
	sv.results.releaseOwned("")
	return err
}

// janitor sweeps idle sessions and idle result handles.
func (sv *Server) janitor() {
	defer close(sv.janitorDone)
	if sv.cfg.SessionIdle < 0 && sv.cfg.ResultIdle < 0 {
		<-sv.janitorStop
		return
	}
	t := time.NewTicker(sv.cfg.JanitorInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := sv.table.expireIdle(sv.cfg.SessionIdle); n > 0 {
				sv.expired.Add(int64(n))
			}
			if n := sv.results.expireIdle(sv.cfg.ResultIdle); n > 0 {
				sv.expiredHandles.Add(int64(n))
			}
		case <-sv.janitorStop:
			return
		}
	}
}

// ---- batch execution ----

// runBatch executes one batch: requests group by tenant, tenant groups run
// concurrently (the engine's pass arbiter and per-owner fair queueing
// interleave their passes), and within a group every request's program is
// evaluated lazily before one shared flush materializes the whole group's
// sinks in admission-arbitrated passes labeled with the batch id.
func (sv *Server) runBatch(id string, reqs []*Request) {
	sv.batches.Inc()
	sv.batchSize.Observe(float64(len(reqs)))
	groups := make(map[*tenant][]*Request)
	var order []*tenant
	for _, r := range reqs {
		tn := r.Sess.tenant
		if _, ok := groups[tn]; !ok {
			order = append(order, tn)
		}
		groups[tn] = append(groups[tn], r)
	}
	var wg sync.WaitGroup
	for _, tn := range order {
		wg.Add(1)
		go func(tn *tenant, rs []*Request) {
			defer wg.Done()
			sv.runTenantGroup(id, len(reqs), tn, rs)
		}(tn, groups[tn])
	}
	wg.Wait()
}

// evaled is one request's evaluation state between the eval and render
// phases.
type evaled struct {
	stmts []string
	vals  []repl.Value
	show  []bool
	err   error
}

// runTenantGroup runs one tenant's slice of a batch. Error isolation is per
// caller: a program that fails to parse or evaluate poisons only its own
// response, and if the shared flush fails, each request re-forces its own
// values during rendering and reports its own error.
func (sv *Server) runTenantGroup(batch string, batchSize int, tn *tenant, rs []*Request) {
	started := time.Now()
	// Phase 1: evaluate every program. Reductions stay pending sinks, so
	// the group's sinks pile up on the tenant's shared flashr session.
	evs := make([]*evaled, len(rs))
	for i, r := range rs {
		ev := &evaled{stmts: splitProgram(r.Program)}
		r.Sess.mu.Lock()
		for _, stmt := range ev.stmts {
			v, printable, err := r.Sess.env.EvalStmt(stmt)
			if err != nil {
				ev.err = fmt.Errorf("statement %q: %w", stmt, err)
				break
			}
			ev.vals = append(ev.vals, v)
			ev.show = append(ev.show, printable)
		}
		r.Sess.mu.Unlock()
		evs[i] = ev
	}
	// Phase 2: one shared flush, attributed to the batch. Printable tall
	// matrix results ride along as extra flush targets so result handles
	// materialize in the group's shared passes instead of paying their own
	// pass at pin time. On error the per-request render phase re-forces and
	// isolates the failure.
	var talls []*flashr.FM
	for _, ev := range evs {
		if ev.err != nil {
			continue
		}
		for j, v := range ev.vals {
			if ev.show[j] && isTall(v) {
				talls = append(talls, v.Mat)
			}
		}
	}
	before := tn.fs.TotalMaterializeStats()
	_ = tn.fs.FlushBatchCtx(context.Background(), batch, talls...)
	flushed := tn.fs.TotalMaterializeStats().Sub(before)
	// Phase 3: render per caller and deliver; tall matrices come back as
	// Items for the HTTP layer to pin.
	for i, r := range rs {
		ev := evs[i]
		resp := &Response{
			BatchID:   batch,
			BatchSize: batchSize,
			QueueWait: started.Sub(r.enqueued),
			Flush:     flushed,
		}
		if ev.err != nil {
			resp.Err = ev.err
		} else {
			r.Sess.mu.Lock()
			for j, v := range ev.vals {
				it, err := itemFor(r.Sess.env, v, ev.show[j])
				if err != nil {
					resp.Err = fmt.Errorf("statement %q: %w", ev.stmts[j], err)
					resp.Items = nil
					break
				}
				resp.Items = append(resp.Items, it)
			}
			r.Sess.mu.Unlock()
		}
		resp.Exec = time.Since(started)
		r.Sess.touch()
		sv.batcher.deliver(r, resp)
	}
}

// itemFor classifies one statement's value: nothing to show (assignments),
// a tall matrix to pin behind a handle, or text rendered by the session's
// interpreter. The caller holds the session's mu.
func itemFor(env *repl.Env, v repl.Value, show bool) (ResultItem, error) {
	if !show {
		return ResultItem{}, nil
	}
	if isTall(v) {
		return ResultItem{Show: true, Mat: v.Mat}, nil
	}
	out, err := env.Format(v)
	return ResultItem{Show: true, Text: out}, err
}

// isTall reports whether v is a matrix served behind a result handle rather
// than rendered as text.
func isTall(v repl.Value) bool { return v.Mat != nil && v.Mat.Length() > 1 }

// splitProgram cuts a program into statements: one per line, blank lines and
// #-comments skipped.
func splitProgram(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out
}

// ---- HTTP handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// authTenant resolves the request's tenant binding from its bearer token.
// With authentication off (no configured tokens) it returns ("", true): no
// binding, proceed. A false second return means a 401 was already written.
func (sv *Server) authTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	if len(sv.cfg.AuthTokens) == 0 {
		return "", true
	}
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if !strings.HasPrefix(auth, prefix) {
		sv.authFailures.Inc()
		writeError(w, http.StatusUnauthorized, CodeAuth, "missing bearer token")
		return "", false
	}
	tenant, ok := sv.cfg.AuthTokens[strings.TrimSpace(auth[len(prefix):])]
	if !ok {
		sv.authFailures.Inc()
		writeError(w, http.StatusUnauthorized, CodeAuth, "unknown bearer token")
		return "", false
	}
	return tenant, true
}

// sessionFor authenticates the request and resolves its session. A token
// bound to a different tenant sees 404, not 403: handle and session ids of
// other tenants must be indistinguishable from nonexistent ones.
func (sv *Server) sessionFor(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	tenant, ok := sv.authTenant(w, r)
	if !ok {
		return nil, false
	}
	s, found := sv.table.get(r.PathValue("id"))
	if !found || (tenant != "" && s.tenant.name != tenant) {
		writeError(w, http.StatusNotFound, CodeUnknownSession, "unknown session")
		return nil, false
	}
	return s, true
}

func (sv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": sv.batcher.isDraining()})
}

func (sv *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if sv.batcher.isDraining() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server draining")
		return
	}
	authed, ok := sv.authTenant(w, r)
	if !ok {
		return
	}
	var body struct {
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	tenant := body.Tenant
	if authed != "" {
		// With auth on the token decides the tenant; a mismatched body
		// assertion is an authorization error, not a quiet override.
		if tenant != "" && tenant != authed {
			sv.authFailures.Inc()
			writeError(w, http.StatusForbidden, CodeAuth, "token is not for tenant %q", tenant)
			return
		}
		tenant = authed
	}
	if !validTenant(tenant) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid tenant name %q", tenant)
		return
	}
	s, err := sv.table.create(tenant, sv.cfg.MaxSessionsPerTenant)
	if errors.Is(err, errSessionLimit) {
		writeError(w, http.StatusTooManyRequests, CodeSessionLimit, "tenant %q at its session limit", tenant)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"session": s.ID, "tenant": tenant})
}

func (sv *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.sessionFor(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	vars := s.env.Vars()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"session": s.ID, "tenant": s.Tenant(), "vars": vars})
}

// handleDeleteSession tears the session down and releases the result
// handles it minted; idle expiry, by contrast, leaves handles to their own
// -result-idle clock.
func (sv *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.sessionFor(w, r)
	if !ok {
		return
	}
	sv.table.remove(s.ID)
	sv.results.releaseOwned(s.ID)
	w.WriteHeader(http.StatusNoContent)
}

func (sv *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s, program, ok := sv.admit(w, r)
	if !ok {
		return
	}
	resp, status, refused := sv.submit(s, program)
	if refused != nil {
		writeJSON(w, status, *refused)
		return
	}
	if resp.Err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, evalEnvelope(resp.Err, resp.BatchID, resp.BatchSize))
		return
	}
	results, errEnv := sv.renderItems(r.Context(), s, resp.Items)
	if errEnv != nil {
		status := http.StatusInternalServerError
		if errEnv.Code == CodeQuotaExceeded {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, *errEnv)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results":       results,
		"batch":         resp.BatchID,
		"batch_size":    resp.BatchSize,
		"queue_wait_ms": float64(resp.QueueWait) / float64(time.Millisecond),
		"exec_ms":       float64(resp.Exec) / float64(time.Millisecond),
	})
}

// admit resolves the request's session and program and applies the pre-eval
// shed ladder both eval routes share: program size, static byte budgets (the
// FlashR premise that shapes are known before any data moves makes this a
// pre-evaluation check — a refused program has run zero materialization
// passes), and the tenant in-flight quota. Returns false once a refusal has
// been written.
func (sv *Server) admit(w http.ResponseWriter, r *http.Request) (*Session, string, bool) {
	s, ok := sv.sessionFor(w, r)
	if !ok {
		return nil, "", false
	}
	var body struct {
		Program string `json:"program"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return nil, "", false
	}
	program := body.Program
	tn := s.tenant
	if len(program) > sv.cfg.MaxProgramBytes {
		tn.shed["program_too_large"].Inc()
		writeError(w, http.StatusRequestEntityTooLarge, CodeProgramTooLarge,
			"program exceeds %d bytes", sv.cfg.MaxProgramBytes)
		return nil, "", false
	}
	if sv.cfg.MaxEstimatedBytes > 0 || sv.cfg.MaxPinnedBytesPerTenant > 0 {
		s.mu.Lock()
		est, ok := s.env.EstimateProgram(splitProgram(program))
		s.mu.Unlock()
		// Without an estimate, WorkBytes still bounds the statements priced
		// before the failing one from below, so it can refuse too.
		if max := sv.cfg.MaxEstimatedBytes; max > 0 && est.WorkBytes > max {
			tn.shed["budget_exceeded"].Inc()
			writeError(w, http.StatusRequestEntityTooLarge, CodeBudgetExceeded,
				"estimated working set %d bytes exceeds budget %d", est.WorkBytes, max)
			return nil, "", false
		}
		if ok {
			if q := sv.cfg.MaxPinnedBytesPerTenant; q > 0 && tn.pinned.Load()+est.ResultBytes > q {
				tn.shed["quota_exceeded"].Inc()
				writeError(w, http.StatusRequestEntityTooLarge, CodeQuotaExceeded,
					"estimated result bytes %d exceed tenant pinned quota %d (%d pinned)",
					est.ResultBytes, q, tn.pinned.Load())
				return nil, "", false
			}
		}
	}
	if max := sv.cfg.MaxInflightPerTenant; max > 0 && tn.inflight.Load() >= int64(max) {
		tn.shed["inflight_limit"].Inc()
		writeError(w, http.StatusTooManyRequests, CodeInflightLimit,
			"tenant %q at its in-flight limit", tn.name)
		return nil, "", false
	}
	return s, program, true
}

// submit runs one program through the batcher for s and waits for its
// response. It is the one request path: /eval submits a whole program,
// /eval/stream each statement in turn, and every submit counts as one
// request in the tenant's arrival rate, in-flight gauge, request and error
// counters and latency, and in the accepted/answered drain proof. A refused
// submit (draining, queue_full) returns no response but the status and
// envelope to shed it with.
func (sv *Server) submit(s *Session, program string) (*Response, int, *errorEnvelope) {
	tn := s.tenant
	req := &Request{Sess: s, Program: program}
	// Claim the session's in-flight slot before Submit: once the request is
	// queued the idle janitor must already see the session as busy, or a
	// sweep between Submit and the batch finishing could expire it under us.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	ch, err := sv.batcher.Submit(req)
	if err != nil {
		code, status := CodeQueueFull, http.StatusTooManyRequests
		if errors.Is(err, ErrDraining) {
			code, status = CodeDraining, http.StatusServiceUnavailable
		}
		tn.shed[code].Inc()
		return nil, status, &errorEnvelope{Error: err.Error(), Code: code}
	}
	sv.rates.observe(tn.name, time.Now())
	tn.inflight.Add(1)
	tn.requests.Inc()
	sv.accepted.Add(1)

	resp := <-ch
	tn.inflight.Add(-1)
	sv.answered.Add(1)
	tn.latency.Observe(time.Since(req.enqueued).Seconds())
	if resp.Err != nil {
		tn.errors.Inc()
	}
	return resp, http.StatusOK, nil
}

// renderItems turns result items into response entries, pinning matrix
// results behind handles owned by s. On failure every handle already
// created for this response is released again — a response either hands out
// all its references or none.
func (sv *Server) renderItems(ctx context.Context, s *Session, items []ResultItem) ([]any, *errorEnvelope) {
	results := make([]any, 0, len(items))
	var created []*handle
	undo := func() {
		for _, h := range created {
			h.release(CodeResultReleased)
		}
	}
	for _, it := range items {
		switch {
		case !it.Show:
			results = append(results, nil)
		case it.Mat == nil:
			results = append(results, map[string]any{"type": "value", "text": it.Text})
		default:
			pr, err := it.Mat.PinCtx(ctx)
			if err != nil {
				undo()
				env := evalEnvelope(err, "", 0)
				env.Code = CodeInternal
				return nil, &env
			}
			h, err := sv.results.put(s, pr, sv.cfg.MaxPinnedBytesPerTenant)
			if errors.Is(err, errPinnedQuota) {
				undo()
				s.tenant.shed["quota_exceeded"].Inc()
				return nil, &errorEnvelope{
					Error: fmt.Sprintf("pinning result would exceed tenant pinned quota %d bytes", sv.cfg.MaxPinnedBytesPerTenant),
					Code:  CodeQuotaExceeded,
				}
			}
			if err != nil {
				undo()
				return nil, &errorEnvelope{Error: err.Error(), Code: CodeInternal}
			}
			created = append(created, h)
			results = append(results, map[string]any{
				"type":   "matrix",
				"handle": h.id,
				"nrow":   h.nrow,
				"ncol":   h.ncol,
				"bytes":  h.bytes,
			})
		}
	}
	return results, nil
}

// ---- streaming eval ----

// handleEvalStream answers a program statement by statement as NDJSON
// events. The program is admitted once, whole; then each statement is
// submitted as its own batched request, in order, so it coalesces with
// whatever else arrives in its flush window. Per statement a "progress" event
// names the batch that served it and carries the pass and byte deltas of that
// batch's flush for the tenant, and a "stmt" event the rendered value or
// result handle; the stream ends with "done", or with an "error" event when a
// statement fails or its submit is refused (draining, queue_full). A refused
// first statement, before anything streamed, is an HTTP error as on /eval.
func (sv *Server) handleEvalStream(w http.ResponseWriter, r *http.Request) {
	s, program, ok := sv.admit(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, CodeStreamUnsupported, "response writer cannot stream")
		return
	}
	// The session stays busy between statements too, so the idle janitor
	// cannot expire it mid-stream.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	var enc *json.Encoder
	emit := func(v any) {
		if enc == nil {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			enc = json.NewEncoder(w)
		}
		_ = enc.Encode(v)
		fl.Flush()
	}
	fail := func(i int, env errorEnvelope) {
		emit(struct {
			Event string `json:"event"`
			Index int    `json:"index"`
			errorEnvelope
		}{"error", i, env})
	}
	stmts := splitProgram(program)
	for i, stmt := range stmts {
		if r.Context().Err() != nil {
			return // the client is gone; submit nothing more
		}
		resp, status, refused := sv.submit(s, stmt)
		switch {
		case refused != nil && i == 0:
			writeJSON(w, status, *refused)
			return
		case refused != nil:
			fail(i, *refused)
			return
		case resp.Err != nil:
			fail(i, evalEnvelope(resp.Err, resp.BatchID, resp.BatchSize))
			return
		}
		emit(map[string]any{
			"event": "progress", "index": i, "batch": resp.BatchID,
			"passes":        resp.Flush.Passes,
			"bytes_read":    resp.Flush.BytesRead,
			"bytes_written": resp.Flush.BytesWritten,
		})
		rendered, errEnv := sv.renderItems(r.Context(), s, resp.Items)
		if errEnv != nil {
			fail(i, *errEnv)
			return
		}
		emit(map[string]any{"event": "stmt", "index": i, "result": rendered[0]})
	}
	emit(map[string]any{"event": "done", "stmts": len(stmts),
		"exec_ms": float64(time.Since(start)) / float64(time.Millisecond)})
}

// ---- result handles ----

// resultFor authenticates the request and resolves its handle; like
// sessionFor, other tenants' handles are indistinguishable from unknown ones.
func (sv *Server) resultFor(w http.ResponseWriter, r *http.Request) (*handle, bool) {
	tenant, ok := sv.authTenant(w, r)
	if !ok {
		return nil, false
	}
	h, found := sv.results.get(r.PathValue("h"))
	if !found || (tenant != "" && h.tenant.name != tenant) {
		writeError(w, http.StatusNotFound, CodeUnknownResult, "unknown result handle")
		return nil, false
	}
	return h, true
}

// fetchChunkRows bounds how many rows one read against the pinned store
// pulls at a time while streaming a fetch response.
const fetchChunkRows = 1024

func (sv *Server) handleFetchResult(w http.ResponseWriter, r *http.Request) {
	h, ok := sv.resultFor(w, r)
	if !ok {
		return
	}
	lo, hi := int64(0), h.nrow
	if q := r.URL.Query().Get("rows"); q != "" {
		a, b, err := parseRowRange(q, h.nrow)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
		lo, hi = a, b
	}
	format := r.URL.Query().Get("format")
	if format != "" && format != "ndjson" && format != "bin" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "unknown format %q (want ndjson or bin)", format)
		return
	}
	// acquire/finish bracket the reads: a concurrent release (client DELETE
	// or the idle janitor) marks the handle released but the pin itself only
	// drops after finish — a fetch never reads freed memory.
	if code, live := h.acquire(); !live {
		writeError(w, http.StatusGone, code, "result handle %s", strings.ReplaceAll(code, "_", " "))
		return
	}
	defer h.finish()
	if format == "bin" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Flashr-Rows", strconv.FormatInt(hi-lo, 10))
		w.Header().Set("X-Flashr-Cols", strconv.FormatInt(h.ncol, 10))
		w.WriteHeader(http.StatusOK)
		for at := lo; at < hi; at += fetchChunkRows {
			end := at + fetchChunkRows
			if end > hi {
				end = hi
			}
			d, err := h.pr.Rows(at, end)
			if err != nil {
				return // headers are gone; the truncated body fails checks client-side
			}
			if err := binary.Write(w, binary.LittleEndian, d.Data); err != nil {
				return
			}
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for at := lo; at < hi; at += fetchChunkRows {
		end := at + fetchChunkRows
		if end > hi {
			end = hi
		}
		d, err := h.pr.Rows(at, end)
		if err != nil {
			return
		}
		for i := int64(0); i < end-at; i++ {
			row := d.Data[i*h.ncol : (i+1)*h.ncol]
			if err := enc.Encode(map[string]any{"row": at + i, "values": row}); err != nil {
				return
			}
		}
	}
}

func (sv *Server) handleReleaseResult(w http.ResponseWriter, r *http.Request) {
	h, ok := sv.resultFor(w, r)
	if !ok {
		return
	}
	h.release(CodeResultReleased) // idempotent: releasing twice is a no-op
	w.WriteHeader(http.StatusNoContent)
}

// parseRowRange parses "a:b" as the half-open row range [a, b).
func parseRowRange(s string, nrow int64) (int64, int64, error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("rows must be a:b, got %q", s)
	}
	lo, err := strconv.ParseInt(a, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("rows lower bound %q: %v", a, err)
	}
	hi, err := strconv.ParseInt(b, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("rows upper bound %q: %v", b, err)
	}
	if lo < 0 || hi > nrow || lo > hi {
		return 0, 0, fmt.Errorf("rows [%d:%d) out of range for %d rows", lo, hi, nrow)
	}
	return lo, hi, nil
}

// validTenant restricts tenant names to a metrics- and filesystem-safe set.
func validTenant(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, c := range s {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}
