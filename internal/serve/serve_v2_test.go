package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	flashr "repro"
)

// ---- v2 helpers ----

// do issues a request with an optional bearer token and returns the raw
// response; callers own closing the body.
func (ts *testServer) do(t *testing.T, method, path, token string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.url+path, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return resp
}

// reqJSON issues a request and decodes the JSON reply.
func (ts *testServer) reqJSON(t *testing.T, method, path, token string, body any) (int, map[string]any) {
	t.Helper()
	resp := ts.do(t, method, path, token, body)
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp.StatusCode, out
}

// matrixHandle extracts the handle object at results[i] of an eval reply.
func matrixHandle(t *testing.T, out map[string]any, i int) (id string, nrow, ncol, bytes int64) {
	t.Helper()
	raw, _ := out["results"].([]any)
	if i >= len(raw) {
		t.Fatalf("results[%d] missing in %v", i, out)
	}
	m, ok := raw[i].(map[string]any)
	if !ok || m["type"] != "matrix" {
		t.Fatalf("results[%d] = %v, want a matrix handle", i, raw[i])
	}
	id, _ = m["handle"].(string)
	if id == "" {
		t.Fatalf("results[%d] has no handle: %v", i, m)
	}
	f := func(k string) int64 { v, _ := m[k].(float64); return int64(v) }
	return id, f("nrow"), f("ncol"), f("bytes")
}

// fetchBin fetches a handle in binary format and decodes the float64 payload.
func (ts *testServer) fetchBin(t *testing.T, h, query string) (int, string, []float64) {
	t.Helper()
	path := "/v2/results/" + h
	if query != "" {
		path += "?" + query
	}
	resp := ts.do(t, http.MethodGet, path+sep(query)+"format=bin", "", nil)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var env map[string]any
		_ = json.Unmarshal(raw, &env)
		code, _ := env["code"].(string)
		return resp.StatusCode, code, nil
	}
	vals := make([]float64, len(raw)/8)
	if err := binary.Read(bytes.NewReader(raw), binary.LittleEndian, vals); err != nil {
		t.Fatalf("decode bin fetch: %v", err)
	}
	return resp.StatusCode, "", vals
}

func sep(query string) string {
	if query == "" {
		return "?"
	}
	return "&"
}

// oneMatrix is a 300×3 matrix whose every element is exactly 1.0
// (min == max == 1), so fetched values are checkable without tolerance.
const oneMatrix = "x <- runif.matrix(300, 3, 1, 1, 7)"

// ---- result encoding ----

// TestServeV2Conformance pins the result encoding: an assignment is null,
// scalar statements are {type:"value", text} in the interpreter's rendering,
// and a printed matrix is a handle whose fetched values are exact.
func TestServeV2Conformance(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")
	code, out := ts.eval(t, sid, oneMatrix+"\nsum(x)\nnrow(x) * ncol(x)")
	if code != http.StatusOK {
		t.Fatalf("eval: HTTP %d: %v", code, out)
	}
	raw, _ := out["results"].([]any)
	if len(raw) != 3 || raw[0] != nil {
		t.Fatalf("results %v, want 3 entries with a null assignment", raw)
	}
	// sum(x) over 900 ones and nrow*ncol both render as 900.
	for i := 1; i < 3; i++ {
		if m, ok := raw[i].(map[string]any); !ok || m["type"] != "value" || m["text"] != "[1] 900" {
			t.Errorf("results[%d] = %v, want value \"[1] 900\"", i, raw[i])
		}
	}

	// A printed matrix becomes a handle whose fetched values match exactly.
	code, out = ts.eval(t, sid, "x")
	if code != http.StatusOK {
		t.Fatalf("eval x: HTTP %d: %v", code, out)
	}
	h, nrow, ncol, nbytes := matrixHandle(t, out, 0)
	if nrow != 300 || ncol != 3 || nbytes != 300*3*8 {
		t.Fatalf("handle shape %dx%d (%d bytes), want 300x3 (7200)", nrow, ncol, nbytes)
	}
	code, _, vals := ts.fetchBin(t, h, "")
	if code != http.StatusOK {
		t.Fatalf("fetch bin: HTTP %d", code)
	}
	if len(vals) != 900 {
		t.Fatalf("fetched %d values, want 900", len(vals))
	}
	for i, v := range vals {
		if v != 1.0 {
			t.Fatalf("value[%d] = %v, want exactly 1.0", i, v)
		}
	}
}

// ---- result-handle lifecycle ----

func TestServeV2HandleLifecycle(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")
	if code, out := ts.eval(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	code, out := ts.eval(t, sid, "x")
	if code != http.StatusOK {
		t.Fatalf("eval x: HTTP %d: %v", code, out)
	}
	h, _, _, _ := matrixHandle(t, out, 0)

	// Row-ranged NDJSON fetch.
	resp := ts.do(t, http.MethodGet, "/v2/results/"+h+"?rows=10:13", "", nil)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("ndjson fetch: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var rows []int64
	for sc.Scan() {
		var line struct {
			Row    int64     `json:"row"`
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("ndjson line: %v", err)
		}
		rows = append(rows, line.Row)
		if len(line.Values) != 3 || line.Values[0] != 1.0 {
			t.Fatalf("row %d values %v, want three 1.0s", line.Row, line.Values)
		}
	}
	resp.Body.Close()
	if len(rows) != 3 || rows[0] != 10 || rows[2] != 12 {
		t.Fatalf("fetched rows %v, want [10 11 12]", rows)
	}

	// Bad ranges and formats are 400s.
	for _, q := range []string{"rows=10", "rows=5:1", "rows=0:9999", "format=xml"} {
		resp := ts.do(t, http.MethodGet, "/v2/results/"+h+"?"+q, "", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("fetch with %q: HTTP %d, want 400", q, resp.StatusCode)
		}
	}

	// Release → 204; fetch-after-release → 410 result_released; releasing
	// again stays a 204 no-op; a bogus handle is 404.
	resp = ts.do(t, http.MethodDelete, "/v2/results/"+h, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release: HTTP %d, want 204", resp.StatusCode)
	}
	code, ecode, _ := ts.fetchBin(t, h, "")
	if code != http.StatusGone || ecode != CodeResultReleased {
		t.Fatalf("fetch after release: HTTP %d code %q, want 410 %q", code, ecode, CodeResultReleased)
	}
	resp = ts.do(t, http.MethodDelete, "/v2/results/"+h, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("second release: HTTP %d, want 204", resp.StatusCode)
	}
	code, out = ts.reqJSON(t, http.MethodGet, "/v2/results/bogus", "", nil)
	if code != http.StatusNotFound || out["code"] != CodeUnknownResult {
		t.Fatalf("bogus handle: HTTP %d %v, want 404 %s", code, out, CodeUnknownResult)
	}
}

// TestServeSessionDeleteReleasesHandles: deleting a session releases the
// handles it minted — fetches answer 410 result_released and the tenant's
// pinned bytes and handle gauge drop to 0 — while other sessions' handles
// stay live.
func TestServeSessionDeleteReleasesHandles(t *testing.T) {
	ts := newTestServer(t, nil)
	pin := func(tenant string) (sid, h string) {
		sid = ts.createSession(t, tenant)
		code, out := ts.eval(t, sid, oneMatrix+"\nx")
		if code != http.StatusOK {
			t.Fatalf("%s eval: HTTP %d: %v", tenant, code, out)
		}
		h, _, _, _ = matrixHandle(t, out, 1)
		return sid, h
	}
	sid, h := pin("acme")
	_, other := pin("zen")

	resp := ts.do(t, http.MethodDelete, "/v2/sessions/"+sid, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE session: HTTP %d, want 204", resp.StatusCode)
	}
	if code, ecode, _ := ts.fetchBin(t, h, ""); code != http.StatusGone || ecode != CodeResultReleased {
		t.Fatalf("fetch after session DELETE: HTTP %d code %q, want 410 %q", code, ecode, CodeResultReleased)
	}
	tr := metricsText(t, ts)
	for _, want := range []string{
		`flashr_serve_pinned_bytes{tenant="acme"} 0`,
		`flashr_serve_result_handles{tenant="acme"} 0`,
	} {
		if !strings.Contains(tr, want+"\n") {
			t.Errorf("metrics missing %q after session DELETE", want)
		}
	}
	if code, _, _ := ts.fetchBin(t, other, ""); code != http.StatusOK {
		t.Fatalf("other session's handle: HTTP %d, want 200", code)
	}
}

func TestServeV2HandleIdleExpiry(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.ResultIdle = 30 * time.Millisecond
		c.JanitorInterval = 10 * time.Millisecond
	})
	sid := ts.createSession(t, "acme")
	if code, out := ts.eval(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	code, out := ts.eval(t, sid, "x")
	if code != http.StatusOK {
		t.Fatalf("eval x: HTTP %d: %v", code, out)
	}
	h, _, _, _ := matrixHandle(t, out, 0)

	// The janitor expires the idle handle: 410 result_expired. Each probe
	// touches the handle, so probe slower than ResultIdle to let it go stale.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, ecode, _ := ts.fetchBin(t, h, "")
		if code == http.StatusGone {
			if ecode != CodeResultExpired {
				t.Fatalf("expired fetch code %q, want %q", ecode, CodeResultExpired)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handle never expired (last HTTP %d)", code)
		}
		time.Sleep(60 * time.Millisecond)
	}
	// After a further idle period the tombstone is forgotten: 404.
	for {
		code, _, _ := ts.fetchBin(t, h, "")
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tombstone never forgotten (last HTTP %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeHandleSurvivesBatches holds a result handle open while other
// sessions run concurrent batched passes, fetching throughout: the pinned
// values must stay exact across every pass the engine coalesces around it.
func TestServeHandleSurvivesBatches(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")
	if code, out := ts.eval(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	code, out := ts.eval(t, sid, "x")
	if code != http.StatusOK {
		t.Fatalf("eval x: HTTP %d: %v", code, out)
	}
	h, _, _, _ := matrixHandle(t, out, 0)

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sid := ts.createSession(t, fmt.Sprintf("other-%d", c))
			if code, out := ts.eval(t, sid, "y <- rnorm.matrix(512, 4, 0, 1, 11)"); code != http.StatusOK {
				t.Errorf("worker %d setup: HTTP %d: %v", c, code, out)
				return
			}
			for i := 0; i < 5; i++ {
				if code, out := ts.eval(t, sid, "sum(y * y)"); code != http.StatusOK {
					t.Errorf("worker %d eval: HTTP %d: %v", c, code, out)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			code, _, vals := ts.fetchBin(t, h, "rows=0:300")
			if code != http.StatusOK {
				t.Errorf("fetch %d: HTTP %d", i, code)
				return
			}
			for j, v := range vals {
				if v != 1.0 {
					t.Errorf("fetch %d: value[%d] = %v, want 1.0", i, j, v)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestServeJanitorFetchRace exercises the release/finish split directly: a
// handle marked released (as the idle janitor does) while a fetch is in
// flight keeps its pin readable until the fetch finishes, and only then frees.
func TestServeJanitorFetchRace(t *testing.T) {
	root, err := flashr.NewSession(flashr.Options{Workers: 2, PartRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	x, err := root.Runif(200, 2, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := x.PinCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{name: "acme"}
	rt := newResultTable()
	h, err := rt.put(&Session{tenant: tn}, pr, 0)
	if err != nil {
		t.Fatal(err)
	}

	if code, live := h.acquire(); !live {
		t.Fatalf("acquire on live handle refused with %q", code)
	}
	// Make the handle stale and run the janitor sweep: it must mark the
	// handle released without freeing the pin under the in-flight fetch.
	h.lastUsed.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := rt.expireIdle(time.Minute); n != 1 {
		t.Fatalf("expireIdle expired %d handles, want 1", n)
	}
	if _, live := h.acquire(); live {
		t.Fatal("acquire succeeded on expired handle")
	}
	d, err := h.pr.Rows(0, 200)
	if err != nil {
		t.Fatalf("read mid-fetch after expiry: %v", err)
	}
	for i, v := range d.Data {
		if v != 1.0 {
			t.Fatalf("value[%d] = %v, want 1.0", i, v)
		}
	}
	if got := tn.pinned.Load(); got != 200*2*8 {
		t.Fatalf("pinned bytes %d before finish, want %d", got, 200*2*8)
	}
	h.finish() // retires the fetch; now the deferred free runs
	if got := tn.pinned.Load(); got != 0 {
		t.Fatalf("pinned bytes %d after finish, want 0", got)
	}
	if _, err := h.pr.Rows(0, 1); err == nil {
		t.Fatal("pin still readable after deferred free")
	}
}

// TestServePinnedQuotaPutClaimFirst pins two results against a quota that
// only fits one: the loser must be refused and its pin released immediately.
func TestServePinnedQuotaPutClaimFirst(t *testing.T) {
	root, err := flashr.NewSession(flashr.Options{Workers: 2, PartRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	tn := &tenant{name: "acme"}
	s := &Session{tenant: tn}
	rt := newResultTable()
	pin := func() *flashr.Pinned {
		x, err := root.Runif(100, 2, 1, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := x.PinCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	quota := int64(100*2*8 + 10) // fits one 1600-byte pin, not two
	if _, err := rt.put(s, pin(), quota); err != nil {
		t.Fatalf("first put: %v", err)
	}
	p2 := pin()
	if _, err := rt.put(s, p2, quota); err != errPinnedQuota {
		t.Fatalf("second put err = %v, want errPinnedQuota", err)
	}
	if _, err := p2.Rows(0, 1); err == nil {
		t.Fatal("refused pin not released")
	}
	if got := tn.pinned.Load(); got != 1600 {
		t.Fatalf("pinned bytes %d after refusal, want 1600", got)
	}
}

// ---- admission budgets ----

func TestServeBudgetRejects413BeforePass(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.MaxEstimatedBytes = 1 << 20 })
	sid := ts.createSession(t, "acme")

	// 100000×10 doubles = 8 MB > the 1 MiB budget: refused pre-eval.
	code, out := ts.eval(t, sid, "x <- runif.matrix(100000, 10, 0, 1, 7)\nsum(x)")
	if code != http.StatusRequestEntityTooLarge || out["code"] != CodeBudgetExceeded {
		t.Fatalf("over-budget eval: HTTP %d %v, want 413 %s", code, out, CodeBudgetExceeded)
	}
	// The refusal must predate any materialization: zero passes have run.
	tn := ts.sv.table.tenantFor("acme")
	if passes := tn.fs.TotalMaterializeStats().Passes; passes != 0 {
		t.Fatalf("rejected program still ran %d materialization passes", passes)
	}

	// Under budget runs normally — and the unbounded estimate path (shapes
	// the estimator cannot model) is admitted rather than rejected.
	code, out = ts.eval(t, sid, "y <- runif.matrix(100, 2, 0, 1, 7)\nsum(y)")
	if code != http.StatusOK {
		t.Fatalf("under-budget eval: HTTP %d: %v", code, out)
	}
	if passes := tn.fs.TotalMaterializeStats().Passes; passes == 0 {
		t.Fatal("admitted program ran no passes")
	}
}

// A program that reads data has no estimate, but the statements priced
// before the read still bound its working set from below: over budget, it
// is refused before any pass.
func TestServeBudgetRefusesPartialEstimate(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.MaxEstimatedBytes = 1 << 20 })
	sid := ts.createSession(t, "acme")
	for _, read := range []string{"head(z)", "z[1, 1]"} {
		code, out := ts.eval(t, sid, "z <- runif.matrix(100000, 10, 0, 1, 7)\n"+read)
		if code != http.StatusRequestEntityTooLarge || out["code"] != CodeBudgetExceeded {
			t.Fatalf("%s: HTTP %d %v, want 413 %s", read, code, out, CodeBudgetExceeded)
		}
	}
	if passes := ts.sv.table.tenantFor("acme").fs.TotalMaterializeStats().Passes; passes != 0 {
		t.Fatalf("refused programs ran %d materialization passes", passes)
	}
}

func TestServePinnedQuotaAdmission(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.MaxPinnedBytesPerTenant = 4096 })
	sid := ts.createSession(t, "acme")
	if code, out := ts.eval(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	// Printing x would pin 7200 bytes > the 4096 quota: refused at admission.
	code, out := ts.eval(t, sid, "x")
	if code != http.StatusRequestEntityTooLarge || out["code"] != CodeQuotaExceeded {
		t.Fatalf("over-quota print: HTTP %d %v, want 413 %s", code, out, CodeQuotaExceeded)
	}
	// A slice under quota pins fine, and releasing it returns the bytes.
	code, out = ts.eval(t, sid, "head(x, 10)")
	if code != http.StatusOK {
		t.Fatalf("small print: HTTP %d: %v", code, out)
	}
	h, nrow, _, _ := matrixHandle(t, out, 0)
	if nrow != 10 {
		t.Fatalf("slice handle has %d rows, want 10", nrow)
	}
	resp := ts.do(t, http.MethodDelete, "/v2/results/"+h, "", nil)
	resp.Body.Close()
	tn := ts.sv.table.tenantFor("acme")
	if got := tn.pinned.Load(); got != 0 {
		t.Fatalf("pinned bytes %d after release, want 0", got)
	}
}

// ---- auth ----

func TestServeAuth(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.AuthTokens = map[string]string{"tok-a": "acme", "tok-b": "bob"}
	})
	// No token and unknown token are 401s.
	code, out := ts.reqJSON(t, http.MethodPost, "/v2/sessions", "", nil)
	if code != http.StatusUnauthorized || out["code"] != CodeAuth {
		t.Fatalf("no token: HTTP %d %v, want 401 %s", code, out, CodeAuth)
	}
	code, out = ts.reqJSON(t, http.MethodPost, "/v2/sessions", "tok-x", nil)
	if code != http.StatusUnauthorized || out["code"] != CodeAuth {
		t.Fatalf("unknown token: HTTP %d %v, want 401 %s", code, out, CodeAuth)
	}
	// The token decides the tenant; an empty body inherits it.
	code, out = ts.reqJSON(t, http.MethodPost, "/v2/sessions", "tok-a", nil)
	if code != http.StatusOK || out["tenant"] != "acme" {
		t.Fatalf("token create: HTTP %d %v, want tenant acme", code, out)
	}
	sid, _ := out["session"].(string)
	// Asserting a different tenant against the token is a 403.
	code, out = ts.reqJSON(t, http.MethodPost, "/v2/sessions", "tok-a", map[string]string{"tenant": "bob"})
	if code != http.StatusForbidden || out["code"] != CodeAuth {
		t.Fatalf("tenant mismatch: HTTP %d %v, want 403 %s", code, out, CodeAuth)
	}
	// Another tenant's session is indistinguishable from a missing one.
	code, out = ts.reqJSON(t, http.MethodPost, "/v2/sessions/"+sid+"/eval", "tok-b", map[string]string{"program": "1 + 1"})
	if code != http.StatusNotFound || out["code"] != CodeUnknownSession {
		t.Fatalf("cross-tenant eval: HTTP %d %v, want 404 %s", code, out, CodeUnknownSession)
	}
	// The owner evaluates normally, and cross-tenant handle fetches 404 too.
	code, out = ts.reqJSON(t, http.MethodPost, "/v2/sessions/"+sid+"/eval", "tok-a",
		map[string]string{"program": oneMatrix + "\nx"})
	if code != http.StatusOK {
		t.Fatalf("owner eval: HTTP %d: %v", code, out)
	}
	h, _, _, _ := matrixHandle(t, out, 1)
	resp := ts.do(t, http.MethodGet, "/v2/results/"+h, "tok-b", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant fetch: HTTP %d, want 404", resp.StatusCode)
	}
	resp = ts.do(t, http.MethodGet, "/v2/results/"+h, "tok-a", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner fetch: HTTP %d, want 200", resp.StatusCode)
	}
}

// ---- streaming eval ----

func TestServeStreamingEval(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")
	prog := oneMatrix + "\nsum(x)\nx"
	resp := ts.do(t, http.MethodPost, "/v2/sessions/"+sid+"/eval/stream", "", map[string]string{"program": prog})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream eval: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	type event struct {
		Event  string         `json:"event"`
		Index  int            `json:"index"`
		Batch  string         `json:"batch"`
		Passes int64          `json:"passes"`
		Result map[string]any `json:"result"`
		Stmts  int            `json:"stmts"`
	}
	var events []event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	// Three statements: (progress, stmt) each, then done.
	if len(events) != 7 {
		t.Fatalf("got %d events %v, want 7", len(events), events)
	}
	for i := 0; i < 3; i++ {
		pg, st := events[2*i], events[2*i+1]
		if pg.Event != "progress" || pg.Index != i {
			t.Fatalf("event %d = %+v, want progress index %d", 2*i, pg, i)
		}
		if pg.Batch == "" {
			t.Fatalf("progress event %d names no batch: %+v", i, pg)
		}
		if st.Event != "stmt" || st.Index != i {
			t.Fatalf("event %d = %+v, want stmt index %d", 2*i+1, st, i)
		}
	}
	if done := events[6]; done.Event != "done" || done.Stmts != 3 || done.Batch != "" {
		t.Fatalf("final event %+v, want done with 3 stmts and no batch", events[6])
	}
	if r := events[1].Result; r != nil {
		t.Errorf("assignment stmt result %v, want null", r)
	}
	if r := events[3].Result; r == nil || r["type"] != "value" || r["text"] != "[1] 900" {
		t.Errorf("sum stmt result %v, want value \"[1] 900\"", events[3].Result)
	}
	r := events[5].Result
	if r == nil || r["type"] != "matrix" {
		t.Fatalf("matrix stmt result %v, want a handle", r)
	}
	h, _ := r["handle"].(string)
	code, _, vals := ts.fetchBin(t, h, "rows=0:2")
	if code != http.StatusOK || len(vals) != 6 || vals[0] != 1.0 {
		t.Fatalf("fetch streamed handle: HTTP %d values %v", code, vals)
	}
	// A failing statement ends the stream with an error event carrying the
	// typed envelope fields.
	resp2 := ts.do(t, http.MethodPost, "/v2/sessions/"+sid+"/eval/stream", "", map[string]string{"program": "x %*% x"})
	defer resp2.Body.Close()
	var last map[string]any
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		last = nil
		if err := json.Unmarshal(sc2.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc2.Text(), err)
		}
	}
	if last == nil || last["event"] != "error" || last["code"] != CodeEvalError {
		t.Fatalf("error stream final event %v, want error/%s", last, CodeEvalError)
	}
	if op, _ := last["op"].(string); op == "" {
		t.Errorf("error event carries no op: %v", last)
	}
}

// streamEvents reads an NDJSON eval stream to its end; after the first
// event it calls first, if set.
func streamEvents(t *testing.T, resp *http.Response, first func()) []map[string]any {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream eval: HTTP %d", resp.StatusCode)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if len(events) == 1 && first != nil {
			first()
		}
	}
	if len(events) == 0 {
		t.Fatal("stream ended with no events")
	}
	return events
}

// TestServeStreamCoalesces: a streamed statement is an ordinary batched
// request, so it rides one batch, and one flush of the tenant's sinks, with
// an /eval from another session of the same tenant arriving in its window.
func TestServeStreamCoalesces(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.BatchWait = 200 * time.Millisecond })
	streamSid, evalSid := ts.createSession(t, "acme"), ts.createSession(t, "acme")
	for _, sid := range []string{streamSid, evalSid} {
		if code, out := ts.eval(t, sid, "x <- runif.matrix(2048, 4, 0, 1, 7)"); code != http.StatusOK {
			t.Fatalf("setup: HTTP %d: %v", code, out)
		}
	}
	tn := ts.sv.table.tenants["acme"]
	start := tn.fs.TotalMaterializeStats().Passes
	var wg sync.WaitGroup
	var code int
	var out map[string]any
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, _ := json.Marshal(map[string]string{"program": "sum(x + 1)"})
		resp, err := http.Post(ts.url+"/v2/sessions/"+evalSid+"/eval", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Errorf("eval: %v", err)
			return
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Errorf("eval: decode: %v", err)
		}
	}()
	events := streamEvents(t, ts.do(t, http.MethodPost, "/v2/sessions/"+streamSid+"/eval/stream", "",
		map[string]string{"program": "sum(x * x)"}), nil)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("eval: HTTP %d: %v", code, out)
	}
	if len(events) != 3 || events[0]["event"] != "progress" || events[2]["event"] != "done" {
		t.Fatalf("stream events %v, want progress, stmt, done", events)
	}
	if got, want := events[0]["batch"], out["batch"]; got != want {
		t.Errorf("stream statement rode batch %v, the concurrent eval %v", got, want)
	}
	if passes := tn.fs.TotalMaterializeStats().Passes - start; passes >= 2 {
		t.Errorf("stream statement and eval cost %d passes; one shared flush should serve both", passes)
	}
}

// TestServeDrainMidStream starts Drain while a stream is between statements.
// Each statement is a batched request, so the one drain proof covers it: the
// counts balance, the stream ends with done or with an error event coded
// draining, and no goroutine of the server, its engine or the stream outlives
// the test.
func TestServeDrainMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	root, err := flashr.NewSession(flashr.Options{Workers: 2, PartRows: 256})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	sv, err := New(Config{Root: root, BatchWait: 10 * time.Millisecond, SessionIdle: -1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(sv)
	ts := &testServer{sv: sv, hs: hs, url: hs.URL}
	sid := ts.createSession(t, "acme")
	prog := strings.Repeat("sum(runif.matrix(256, 2, 0, 1, 5))\n", 40)
	drained := make(chan error, 1)
	events := streamEvents(t, ts.do(t, http.MethodPost, "/v2/sessions/"+sid+"/eval/stream", "",
		map[string]string{"program": prog}), func() {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drained <- sv.Drain(ctx)
		}()
	})
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	last := events[len(events)-1]
	t.Logf("stream ended after %d events with %v", len(events), last)
	switch {
	case last["event"] == "done":
	case last["event"] == "error" && last["code"] == CodeDraining:
	default:
		t.Fatalf("stream ended with %v, want done or an error coded %s", last, CodeDraining)
	}
	if acc, ans := sv.Accepted(), sv.Answered(); acc != ans || acc == 0 {
		t.Errorf("accepted=%d answered=%d after drain; must balance", acc, ans)
	}
	hs.Close()
	http.DefaultClient.CloseIdleConnections()
	root.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the test, %d before it:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// ---- error envelope parity ----

// TestServeErrorEnvelopeHTTPParity proves the HTTP envelope carries the same
// typed op/shapes/reason a direct Try* caller sees for the same misuse.
func TestServeErrorEnvelopeHTTPParity(t *testing.T) {
	root, err := flashr.NewSession(flashr.Options{Workers: 2, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	mk := func(n int64, p int) *flashr.FM {
		m, err := root.Runif(n, p, 0, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name    string
		program string
		direct  func() error
	}{
		{"matmul shape mismatch",
			"a <- runif.matrix(300, 3, 0, 1, 7)\nb <- runif.matrix(300, 3, 0, 1, 8)\nsum(a %*% b)",
			func() error { _, err := flashr.TryMatMul(mk(300, 3), mk(300, 3)); return err }},
		{"add shape mismatch",
			"a <- runif.matrix(300, 3, 0, 1, 7)\nc <- runif.matrix(200, 3, 0, 1, 8)\nsum(a + c)",
			func() error { _, err := flashr.TryAdd(mk(300, 3), mk(200, 3)); return err }},
	}
	ts := newTestServer(t, nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want *flashr.Error
			if derr := tc.direct(); !errors.As(derr, &want) {
				t.Fatalf("direct call error %v is not *flashr.Error", derr)
			}
			sid := ts.createSession(t, "acme")
			code, out := ts.eval(t, sid, tc.program)
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("eval: HTTP %d %v, want 422", code, out)
			}
			if out["code"] != CodeEvalError {
				t.Errorf("envelope code %v, want %s", out["code"], CodeEvalError)
			}
			if got, _ := out["op"].(string); got != want.Op {
				t.Errorf("envelope op %q, want %q", got, want.Op)
			}
			if got, _ := out["reason"].(string); got != want.Reason {
				t.Errorf("envelope reason %q, want %q", got, want.Reason)
			}
			gotShapes, _ := json.Marshal(out["shapes"])
			wantShapes, _ := json.Marshal(want.Shapes)
			if !bytes.Equal(gotShapes, wantShapes) {
				t.Errorf("envelope shapes %s, want %s", gotShapes, wantShapes)
			}
		})
	}
}

// ---- adaptive batching ----

func TestServeRateControllerWindow(t *testing.T) {
	rc := newRateController(time.Millisecond, 50*time.Millisecond, 16)
	base := time.Unix(1000, 0)

	// No arrivals: λ = 0 → floor.
	if w := rc.window(base); w != time.Millisecond {
		t.Fatalf("idle window %s, want 1ms", w)
	}
	// A steady 1000 req/s stream: window ≈ 15/1000 s = 15ms.
	now := base
	for i := 0; i < 50; i++ {
		now = now.Add(time.Millisecond)
		rc.observe("acme", now)
	}
	w := rc.window(now)
	if w < 10*time.Millisecond || w > 25*time.Millisecond {
		t.Fatalf("1000 req/s window %s, want ≈15ms", w)
	}
	// Sparse traffic (5 req/s): λ·ceil = 0.25 < 1 → floor again.
	rc2 := newRateController(time.Millisecond, 50*time.Millisecond, 16)
	now = base
	for i := 0; i < 20; i++ {
		now = now.Add(200 * time.Millisecond)
		rc2.observe("acme", now)
	}
	if w := rc2.window(now); w != time.Millisecond {
		t.Fatalf("sparse window %s, want 1ms floor", w)
	}
	// Staleness decay: a finished burst stops holding the window small.
	if w := rc.window(now.Add(time.Minute)); w != time.Millisecond {
		t.Fatalf("stale window %s, want 1ms floor", w)
	}
	// Two tenants' rates sum: each at 100 req/s → λ=200 → 15/200 = 75ms → ceil.
	rc3 := newRateController(time.Millisecond, 50*time.Millisecond, 16)
	now = base
	for i := 0; i < 30; i++ {
		now = now.Add(10 * time.Millisecond)
		rc3.observe("a", now)
		rc3.observe("b", now)
	}
	if w := rc3.window(now); w != 50*time.Millisecond {
		t.Fatalf("two-tenant window %s, want 50ms ceil", w)
	}
	// floor == ceil is a fixed window: idle, sparse (λ·ceil < 1) and dense
	// (clamped) traffic all get the same 2ms.
	fixed := newRateController(2*time.Millisecond, 2*time.Millisecond, 16)
	now = base
	if w := fixed.window(now); w != 2*time.Millisecond {
		t.Fatalf("fixed idle window %s, want 2ms", w)
	}
	for _, gap := range []time.Duration{time.Second, 10 * time.Millisecond, time.Millisecond, 100 * time.Microsecond} {
		for i := 0; i < 30; i++ {
			now = now.Add(gap)
			fixed.observe("acme", now)
		}
		if w := fixed.window(now); w != 2*time.Millisecond {
			t.Fatalf("fixed window at λ=%.0f/s is %s, want 2ms", fixed.rate(now), w)
		}
	}
}

// TestBatcherAdaptiveWindow proves the batcher consults the window func once
// per batch, as the batch's first request arrives: requests submitted
// together share one window, and a later lone request opens a fresh one and
// flushes when it expires.
func TestBatcherAdaptiveWindow(t *testing.T) {
	var calls atomic.Int64
	var b *Batcher
	b = NewBatcher(8, func() time.Duration {
		calls.Add(1)
		return 50 * time.Millisecond
	}, 16, func(id string, reqs []*Request) {
		for _, r := range reqs {
			b.deliver(r, &Response{BatchID: id, BatchSize: len(reqs)})
		}
	})
	defer b.Drain(context.Background())
	for _, ch := range submitN(t, b, 3) {
		if r := recv(t, ch, 5*time.Second); r.BatchSize != 3 {
			t.Fatalf("batch of %d, want 3 sharing one window", r.BatchSize)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("window consulted %d times for one batch, want 1", n)
	}
	start := time.Now()
	recv(t, submitN(t, b, 1)[0], 5*time.Second)
	if wait := time.Since(start); wait > time.Second {
		t.Fatalf("lone request flushed after %s; window ignored", wait)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("window consulted %d times for two batches, want 2", n)
	}
}

// TestServeAdaptiveConfigWiring checks New always wires the rate controller
// in and exports its gauges: the default config is a fixed 2ms window, and a
// floor below BatchWait makes the window adaptive between the two.
func TestServeAdaptiveConfigWiring(t *testing.T) {
	for _, tc := range []struct {
		name        string
		floor, wait time.Duration
		lo, hi      float64 // bounds on the exported window, seconds
	}{
		{"default fixed", 0, 0, 0.002, 0.002},
		{"adaptive", time.Millisecond, 20 * time.Millisecond, 0.001, 0.020},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t, func(c *Config) { c.BatchWaitFloor, c.BatchWait = tc.floor, tc.wait })
			sid := ts.createSession(t, "acme")
			if code, out := ts.eval(t, sid, "1 + 1"); code != http.StatusOK {
				t.Fatalf("eval: HTTP %d: %v", code, out)
			}
			tr := metricsText(t, ts)
			if !strings.Contains(tr, "\nflashr_serve_arrival_rate ") {
				t.Error("metrics missing flashr_serve_arrival_rate")
			}
			var w float64
			if _, after, ok := strings.Cut(tr, "\nflashr_serve_batch_window_seconds "); !ok {
				t.Fatal("metrics missing flashr_serve_batch_window_seconds")
			} else if _, err := fmt.Sscan(after, &w); err != nil {
				t.Fatalf("window gauge: %v", err)
			}
			if w < tc.lo || w > tc.hi {
				t.Errorf("window gauge %gs, want within [%g, %g]", w, tc.lo, tc.hi)
			}
		})
	}
}
