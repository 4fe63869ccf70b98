package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	flashr "repro"
)

// handle is one pinned result reference handed to a client. Its lifecycle is
// a small state machine guarded by mu:
//
//	live      — fetchable; fetches counts in-flight row reads
//	released  — no new fetches (410); the pin is dropped the moment the last
//	            in-flight fetch finishes, never under one
//	(gone)    — the janitor forgets released handles after a further idle
//	            period; lookups then 404
//
// The released/freed split is what makes "janitor never frees a handle with
// an in-flight fetch" structural: release marks, finish frees.
type handle struct {
	id     string
	tenant *tenant
	// session is the id of the serving session whose eval minted the
	// handle. An id, not the *Session: a tombstone outlives its session and
	// must not keep the session's interpreter variables reachable.
	session string
	pr      *flashr.Pinned
	nrow    int64
	ncol    int64
	bytes   int64

	lastUsed atomic.Int64 // unix nanos

	mu       sync.Mutex
	fetches  int
	released bool
	code     string // CodeResultReleased or CodeResultExpired once released
	relAt    int64  // unix nanos of release, for tombstone expiry
}

func (h *handle) touch() { h.lastUsed.Store(time.Now().UnixNano()) }

// acquire registers an in-flight fetch. It fails with the release code once
// the handle is released or expired.
func (h *handle) acquire() (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return h.code, false
	}
	h.fetches++
	h.touch()
	return "", true
}

// finish retires an in-flight fetch, dropping the pin if a release was
// deferred behind it.
func (h *handle) finish() {
	h.mu.Lock()
	h.fetches--
	free := h.released && h.fetches == 0
	h.mu.Unlock()
	if free {
		h.free()
	}
}

// release moves the handle to the released state under the given code. The
// pin drops now if no fetch is in flight, else when the last one finishes.
// Reports whether this call performed the release.
func (h *handle) release(code string) bool {
	h.mu.Lock()
	if h.released {
		h.mu.Unlock()
		return false
	}
	h.released = true
	h.code = code
	h.relAt = time.Now().UnixNano()
	free := h.fetches == 0
	h.mu.Unlock()
	if free {
		h.free()
	}
	return true
}

// free drops the pin and the tenant's pinned-byte accounting. Called exactly
// once, by whichever of release/finish observed fetches==0 after release.
func (h *handle) free() {
	_ = h.pr.Release()
	h.tenant.pinned.Add(-h.bytes)
	h.tenant.handles.Add(-1)
}

// resultTable owns every live and tombstoned result handle.
type resultTable struct {
	mu      sync.Mutex
	handles map[string]*handle
}

func newResultTable() *resultTable {
	return &resultTable{handles: make(map[string]*handle)}
}

// errPinnedQuota is returned by put when creating the handle would push the
// tenant past its pinned-byte quota; the pin is released before returning.
var errPinnedQuota = errors.New("serve: tenant pinned-byte quota reached")

// put registers a pinned result owned by the serving session s and returns
// its handle. The quota claim against s's tenant is claim-first (like
// session creation) so concurrent pins cannot both slip under it. A handle
// minted for a session already closed comes back released, so a DELETE
// racing an in-flight eval cannot leave a pin behind.
func (t *resultTable) put(s *Session, pr *flashr.Pinned, quota int64) (*handle, error) {
	tn := s.tenant
	b := pr.Bytes()
	if n := tn.pinned.Add(b); quota > 0 && n > quota {
		tn.pinned.Add(-b)
		pr.Release()
		return nil, errPinnedQuota
	}
	id, err := newSessionID()
	if err != nil {
		tn.pinned.Add(-b)
		pr.Release()
		return nil, err
	}
	r, c := pr.Dim()
	h := &handle{id: "r" + id, tenant: tn, session: s.ID, pr: pr, nrow: r, ncol: c, bytes: b}
	h.touch()
	tn.handles.Add(1)
	// Checked under mu: releaseOwned sweeps under mu after the session is
	// marked closed, so either the sweep sees this handle or this sees closed.
	t.mu.Lock()
	t.handles[h.id] = h
	closed := s.closed.Load()
	t.mu.Unlock()
	if closed {
		h.release(CodeResultReleased)
	}
	return h, nil
}

// get looks a handle up by id (live or tombstoned).
func (t *resultTable) get(id string) (*handle, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.handles[id]
	return h, ok
}

// expireIdle releases handles idle longer than maxIdle (they 410 as expired)
// and forgets tombstones released longer than maxIdle ago (they 404 again).
// Returns how many live handles it expired.
func (t *resultTable) expireIdle(maxIdle time.Duration) int {
	if maxIdle <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-maxIdle).UnixNano()
	t.mu.Lock()
	live := make([]*handle, 0)
	var gone []string
	for id, h := range t.handles {
		h.mu.Lock()
		released, relAt := h.released, h.relAt
		h.mu.Unlock()
		if released {
			if relAt < cutoff {
				gone = append(gone, id)
			}
			continue
		}
		if h.lastUsed.Load() < cutoff {
			live = append(live, h)
		}
	}
	for _, id := range gone {
		delete(t.handles, id)
	}
	t.mu.Unlock()
	n := 0
	for _, h := range live {
		if h.release(CodeResultExpired) {
			n++
		}
	}
	return n
}

// releaseOwned releases every live handle the session with this id minted
// (session DELETE), or every live handle when session is "" (server drain).
func (t *resultTable) releaseOwned(session string) {
	t.mu.Lock()
	var hs []*handle
	for _, h := range t.handles {
		if session == "" || h.session == session {
			hs = append(hs, h)
		}
	}
	t.mu.Unlock()
	for _, h := range hs {
		h.release(CodeResultReleased)
	}
}
