package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	flashr "repro"
	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/trace"
)

// tenant is the unit of QoS and accounting: one shared-engine flashr session
// (owner = tenant name, weight = the tenant's bandwidth share) plus the
// serving sessions, quotas, and metrics hanging off it. All of a tenant's
// serving sessions evaluate against the same flashr session, which is what
// lets the sinks of a whole batch of its requests flush as shared passes.
type tenant struct {
	name string
	fs   *flashr.Session

	inflight atomic.Int64 // requests accepted and not yet answered
	sessions atomic.Int64 // live serving sessions
	pinned   atomic.Int64 // bytes held by live result handles
	handles  atomic.Int64 // live result handles

	requests *trace.Counter
	errors   *trace.Counter
	shed     map[string]*trace.Counter
	latency  *trace.Histogram
}

// Session is one client-facing serving session: an interpreter environment
// (variables) over its tenant's shared flashr session. Programs of one
// serving session execute serially under mu; programs of different sessions
// — same tenant or not — run concurrently.
type Session struct {
	ID     string
	tenant *tenant

	mu       sync.Mutex
	env      *repl.Env
	lastUsed atomic.Int64 // unix nanos
	// inflight counts requests accepted for this session and not yet
	// answered. The idle janitor must not expire a session mid-request:
	// lastUsed is only refreshed when a batch finishes, so a batch slower
	// than the idle limit would otherwise let the sweep remove the session
	// under its active client (and a follow-up request would 404).
	inflight atomic.Int64
	closed   atomic.Bool
}

// touch refreshes the idle-expiry clock.
func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// Tenant returns the owning tenant's name.
func (s *Session) Tenant() string { return s.tenant.name }

// sessionTable owns every live serving session and tenant.
type sessionTable struct {
	root    *flashr.Session
	weights map[string]int
	reg     *trace.Registry

	mu       sync.Mutex
	tenants  map[string]*tenant
	sessions map[string]*Session
}

func newSessionTable(root *flashr.Session, weights map[string]int, reg *trace.Registry) *sessionTable {
	return &sessionTable{
		root:     root,
		weights:  weights,
		reg:      reg,
		tenants:  make(map[string]*tenant),
		sessions: make(map[string]*Session),
	}
}

// tenantFor returns (building on first use) the tenant record. A new tenant
// gets a shared-engine flashr session owned by its name and a per-tenant
// metrics registry included into the server registry, so one /metrics scrape
// shows every tenant's requests, sheds, latency, and engine pass totals side
// by side.
func (t *sessionTable) tenantFor(name string) *tenant {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tn, ok := t.tenants[name]; ok {
		return tn
	}
	tn := &tenant{name: name, fs: t.root.Share(name, t.weights[name]), shed: make(map[string]*trace.Counter)}
	lbl := trace.Label{Key: "tenant", Value: name}
	tr := trace.NewRegistry()
	tn.requests = tr.Counter("flashr_serve_requests_total", "Programs accepted for execution.", lbl)
	tn.errors = tr.Counter("flashr_serve_errors_total", "Requests answered with a program error.", lbl)
	for _, reason := range shedReasons {
		c := tr.Counter("flashr_serve_shed_total", "Requests shed before execution.", lbl, trace.Label{Key: "reason", Value: reason})
		tn.shed[reason] = c
	}
	tn.latency = trace.NewHistogram(0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10)
	tr.AddHistogram("flashr_serve_request_seconds", "End-to-end request latency.", tn.latency, lbl)
	tr.GaugeFunc("flashr_serve_inflight", "Requests accepted and not yet answered.",
		func() float64 { return float64(tn.inflight.Load()) }, lbl)
	tr.GaugeFunc("flashr_serve_sessions", "Live serving sessions.",
		func() float64 { return float64(tn.sessions.Load()) }, lbl)
	tr.GaugeFunc("flashr_serve_pinned_bytes", "Bytes held by live result handles.",
		func() float64 { return float64(tn.pinned.Load()) }, lbl)
	tr.GaugeFunc("flashr_serve_result_handles", "Live result handles.",
		func() float64 { return float64(tn.handles.Load()) }, lbl)
	// The tenant's engine-pass totals, labeled owner=<tenant>: the series
	// the smoke test compares against requests to prove coalescing.
	core.RegisterStatsMetrics(tr, name, tn.fs.TotalMaterializeStats)
	t.reg.Include(tr)
	t.tenants[name] = tn
	return tn
}

// shedReasons enumerates the shed counter's reason label values so every
// series exists from the tenant's first scrape.
var shedReasons = []string{
	"queue_full", "inflight_limit", "session_limit", "draining",
	"program_too_large", "budget_exceeded", "quota_exceeded",
}

// create builds a serving session for the tenant, enforcing the per-tenant
// session quota.
func (t *sessionTable) create(tenantName string, maxSessions int) (*Session, error) {
	tn := t.tenantFor(tenantName)
	// Claim the slot first so concurrent creates cannot both slip under
	// the quota; roll back on refusal.
	if n := tn.sessions.Add(1); maxSessions > 0 && n > int64(maxSessions) {
		tn.sessions.Add(-1)
		tn.shed["session_limit"].Inc()
		return nil, errSessionLimit
	}
	id, err := newSessionID()
	if err != nil {
		tn.sessions.Add(-1)
		return nil, err
	}
	env := repl.NewEnv(tn.fs)
	env.SetLazyScalars(true)
	s := &Session{ID: id, tenant: tn, env: env}
	s.touch()
	t.mu.Lock()
	t.sessions[id] = s
	t.mu.Unlock()
	return s, nil
}

// get looks a session up by id.
func (t *sessionTable) get(id string) (*Session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[id]
	return s, ok
}

// remove closes and forgets a session. Idempotent.
func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	s, ok := t.sessions[id]
	delete(t.sessions, id)
	t.mu.Unlock()
	if !ok {
		return false
	}
	if s.closed.CompareAndSwap(false, true) {
		s.tenant.sessions.Add(-1)
	}
	return true
}

// expireIdle removes sessions idle longer than maxIdle and returns how many.
func (t *sessionTable) expireIdle(maxIdle time.Duration) int {
	if maxIdle <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-maxIdle).UnixNano()
	t.mu.Lock()
	var stale []string
	for id, s := range t.sessions {
		if s.inflight.Load() > 0 {
			continue // mid-request: not idle, whatever the clock says
		}
		if s.lastUsed.Load() < cutoff {
			stale = append(stale, id)
		}
	}
	t.mu.Unlock()
	for _, id := range stale {
		t.remove(id)
	}
	return len(stale)
}

// each calls f for every live tenant.
func (t *sessionTable) each(f func(*tenant)) {
	t.mu.Lock()
	tns := make([]*tenant, 0, len(t.tenants))
	for _, tn := range t.tenants {
		tns = append(tns, tn)
	}
	t.mu.Unlock()
	for _, tn := range tns {
		f(tn)
	}
}

// newSessionID returns a 128-bit random hex id.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
