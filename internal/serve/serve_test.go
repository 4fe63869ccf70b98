package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	flashr "repro"
)

// testServer is an in-memory flashr engine behind a Server behind httptest.
type testServer struct {
	sv  *Server
	hs  *httptest.Server
	url string
}

func newTestServer(t *testing.T, mutate func(*Config)) *testServer {
	t.Helper()
	root, err := flashr.NewSession(flashr.Options{Workers: 2, PartRows: 256})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { root.Close() })
	cfg := Config{Root: root, BatchWait: time.Millisecond, SessionIdle: -1}
	if mutate != nil {
		mutate(&cfg)
	}
	sv, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sv.Drain(ctx); err != nil {
			t.Errorf("cleanup Drain: %v", err)
		}
	})
	hs := httptest.NewServer(sv)
	t.Cleanup(hs.Close)
	return &testServer{sv: sv, hs: hs, url: hs.URL}
}

// post sends a JSON body and decodes a JSON reply into a generic map.
func (ts *testServer) post(t *testing.T, path string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return resp.StatusCode, out
}

func (ts *testServer) createSession(t *testing.T, tenant string) string {
	t.Helper()
	code, out := ts.post(t, "/v2/sessions", map[string]string{"tenant": tenant})
	if code != http.StatusOK {
		t.Fatalf("create session: HTTP %d: %v", code, out)
	}
	id, _ := out["session"].(string)
	if id == "" {
		t.Fatalf("create session: no id in %v", out)
	}
	return id
}

func (ts *testServer) eval(t *testing.T, sid, program string) (int, map[string]any) {
	t.Helper()
	return ts.post(t, "/v2/sessions/"+sid+"/eval", map[string]string{"program": program})
}

// results returns the text of each {type:"value"} entry of an eval reply,
// and "" for statements that print nothing or come back as handles.
func results(out map[string]any) []string {
	raw, _ := out["results"].([]any)
	rs := make([]string, len(raw))
	for i, v := range raw {
		if m, ok := v.(map[string]any); ok && m["type"] == "value" {
			rs[i], _ = m["text"].(string)
		}
	}
	return rs
}

func TestServeSessionLifecycle(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")

	code, out := ts.eval(t, sid, "x <- runif.matrix(512, 4, 0, 1, 7)")
	if code != http.StatusOK {
		t.Fatalf("eval assign: HTTP %d: %v", code, out)
	}
	if rs := results(out); len(rs) != 1 || rs[0] != "" {
		t.Errorf("assignment printed %q, want one blank result", rs)
	}

	resp, err := http.Get(ts.url + "/v2/sessions/" + sid)
	if err != nil {
		t.Fatalf("GET session: %v", err)
	}
	var info struct {
		Tenant string   `json:"tenant"`
		Vars   []string `json:"vars"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode session info: %v", err)
	}
	resp.Body.Close()
	if info.Tenant != "acme" || len(info.Vars) != 1 || info.Vars[0] != "x" {
		t.Errorf("session info = %+v, want tenant acme vars [x]", info)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.url+"/v2/sessions/"+sid, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE session: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE: HTTP %d, want 204", dresp.StatusCode)
	}
	if code, _ := ts.eval(t, sid, "1 + 1"); code != http.StatusNotFound {
		t.Errorf("eval on deleted session: HTTP %d, want 404", code)
	}
}

func TestServeEvalComputes(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")

	// A multi-statement program: the reduction is exact because the matrix
	// is all ones.
	code, out := ts.eval(t, sid, "x <- runif.matrix(300, 3, 1, 1, 7)\nsum(x)")
	if code != http.StatusOK {
		t.Fatalf("eval: HTTP %d: %v", code, out)
	}
	rs := results(out)
	if len(rs) != 2 || rs[1] != "[1] 900" {
		t.Errorf("results = %q, want [\"\", \"[1] 900\"]", rs)
	}
	if out["batch"] == "" || out["batch_size"] == nil {
		t.Errorf("response lacks batch attribution: %v", out)
	}
}

// TestServeRetiredRoutes pins the single serving surface: /v1 paths and an
// /op route answer 404 (or 405) like any unknown path.
func TestServeRetiredRoutes(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/sessions"},
		{http.MethodGet, "/v1/sessions/" + sid},
		{http.MethodDelete, "/v1/sessions/" + sid},
		{http.MethodPost, "/v1/sessions/" + sid + "/eval"},
		{http.MethodPost, "/v1/sessions/" + sid + "/op"},
		{http.MethodPost, "/v2/sessions/" + sid + "/op"},
	} {
		resp := ts.do(t, probe.method, probe.path, "", map[string]string{"tenant": "acme", "program": "1"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: HTTP %d, want 404 or 405", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// A bad program must poison only its own response, even when it shares a
// batch with healthy requests.
func TestServeErrorIsolation(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.BatchWait = 50 * time.Millisecond })
	good := ts.createSession(t, "acme")
	bad := ts.createSession(t, "acme")
	if code, _ := ts.eval(t, good, "x <- runif.matrix(256, 2, 1, 1, 7)"); code != http.StatusOK {
		t.Fatal("setup failed")
	}

	var wg sync.WaitGroup
	var goodCode, badCode int
	var goodOut, badOut map[string]any
	wg.Add(2)
	go func() { defer wg.Done(); goodCode, goodOut = ts.eval(t, good, "sum(x)") }()
	go func() { defer wg.Done(); badCode, badOut = ts.eval(t, bad, "sum(missing_var)") }()
	wg.Wait()

	if goodCode != http.StatusOK {
		t.Errorf("good request: HTTP %d: %v", goodCode, goodOut)
	}
	if rs := results(goodOut); len(rs) != 1 || rs[0] != "[1] 512" {
		t.Errorf("good request results = %q, want [1] 512", rs)
	}
	if badCode != http.StatusUnprocessableEntity {
		t.Errorf("bad request: HTTP %d, want 422 (%v)", badCode, badOut)
	}
	if msg, _ := badOut["error"].(string); !strings.Contains(msg, "missing_var") {
		t.Errorf("bad request error %q does not name the missing variable", msg)
	}
}

// Concurrent requests from one tenant must coalesce: far fewer materialization
// passes than requests, and at least some responses sharing a batch.
func TestServeCoalescing(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.BatchWait = 100 * time.Millisecond })
	sid := ts.createSession(t, "acme")
	if code, _ := ts.eval(t, sid, "x <- runif.matrix(2048, 4, 0, 1, 7)"); code != http.StatusOK {
		t.Fatal("setup failed")
	}
	tn := ts.sv.table.tenants["acme"]

	const n = 8
	sids := make([]string, n)
	for i := range sids {
		sids[i] = ts.createSession(t, "acme")
		if code, _ := ts.eval(t, sids[i], "y <- runif.matrix(2048, 4, 0, 1, 9)"); code != http.StatusOK {
			t.Fatal("per-session setup failed")
		}
	}
	start := tn.fs.TotalMaterializeStats().Passes
	var wg sync.WaitGroup
	codes := make([]int, n)
	outs := make([]map[string]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], outs[i] = ts.eval(t, sids[i], "sum(y * y)")
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %v", i, code, outs[i])
		}
	}
	passes := tn.fs.TotalMaterializeStats().Passes - start
	if passes >= n {
		t.Errorf("%d requests cost %d passes; batching should coalesce them", n, passes)
	}
	shared := 0
	for _, out := range outs {
		if bs, _ := out["batch_size"].(float64); bs > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("no response reports batch_size > 1 across %d concurrent requests", n)
	}
}

func TestServeShedLadder(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.MaxProgramBytes = 32
		c.MaxSessionsPerTenant = 1
		c.MaxInflightPerTenant = 1
	})

	// Unknown session: 404.
	if code, _ := ts.eval(t, "deadbeef", "1"); code != http.StatusNotFound {
		t.Errorf("unknown session: HTTP %d, want 404", code)
	}

	sid := ts.createSession(t, "acme")

	// Session quota: 429.
	if code, _ := ts.post(t, "/v2/sessions", map[string]string{"tenant": "acme"}); code != http.StatusTooManyRequests {
		t.Errorf("over session quota: HTTP %d, want 429", code)
	}
	// Another tenant is unaffected.
	ts.createSession(t, "other")

	// Oversized program: 413.
	if code, _ := ts.eval(t, sid, strings.Repeat("1+", 40)+"1"); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized program: HTTP %d, want 413", code)
	}

	// In-flight quota: 429. The quota check reads the tenant's gauge, so
	// holding a synthetic in-flight request is enough to trip it.
	tn := ts.sv.table.tenants["acme"]
	tn.inflight.Add(1)
	if code, _ := ts.eval(t, sid, "1"); code != http.StatusTooManyRequests {
		t.Errorf("over in-flight quota: HTTP %d, want 429", code)
	}
	tn.inflight.Add(-1)

	// Invalid tenant names: 400.
	for _, name := range []string{"", "a b", "x/y", strings.Repeat("z", 65)} {
		if code, _ := ts.post(t, "/v2/sessions", map[string]string{"tenant": name}); code != http.StatusBadRequest {
			t.Errorf("tenant %q: HTTP %d, want 400", name, code)
		}
	}

	// Shed counters moved.
	tr := metricsText(t, ts)
	for _, want := range []string{
		`flashr_serve_shed_total{tenant="acme",reason="session_limit"} 1`,
		`flashr_serve_shed_total{tenant="acme",reason="program_too_large"} 1`,
		`flashr_serve_shed_total{tenant="acme",reason="inflight_limit"} 1`,
	} {
		if !strings.Contains(tr, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServeDrain(t *testing.T) {
	ts := newTestServer(t, nil)
	sid := ts.createSession(t, "acme")
	for i := 0; i < 3; i++ {
		if code, _ := ts.eval(t, sid, "x <- runif.matrix(256, 2, 0, 1, 5)\nsum(x)"); code != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.sv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if acc, ans := ts.sv.Accepted(), ts.sv.Answered(); acc != ans {
		t.Errorf("accepted=%d answered=%d after drain; must balance", acc, ans)
	}
	if code, _ := ts.eval(t, sid, "1"); code != http.StatusServiceUnavailable {
		t.Errorf("eval while draining: HTTP %d, want 503", code)
	}
	// A stream refused at its first statement has streamed nothing yet, so
	// it is refused over HTTP as an eval is.
	if code, _ := ts.post(t, "/v2/sessions/"+sid+"/eval/stream", map[string]string{"program": "1"}); code != http.StatusServiceUnavailable {
		t.Errorf("stream while draining: HTTP %d, want 503", code)
	}
	if code, _ := ts.post(t, "/v2/sessions", map[string]string{"tenant": "acme"}); code != http.StatusServiceUnavailable {
		t.Errorf("create while draining: HTTP %d, want 503", code)
	}
}

func TestServeIdleExpiry(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.SessionIdle = 30 * time.Millisecond
		c.JanitorInterval = 10 * time.Millisecond
	})
	sid := ts.createSession(t, "acme")
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.url + "/v2/sessions/" + sid)
		if err != nil {
			t.Fatalf("GET session: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break // expired
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := ts.sv.table.tenants["acme"].sessions.Load(); got != 0 {
		t.Errorf("tenant session gauge = %d after expiry, want 0", got)
	}
}

// TestServeNoExpiryMidRequest: the idle janitor must not expire a session
// while one of its requests is in flight. The batch window is held open far
// longer than the idle limit, so lastUsed goes stale mid-request; without
// the in-flight guard the sweep removes the session under its active client
// and the follow-up request 404s.
func TestServeNoExpiryMidRequest(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.BatchWait = 300 * time.Millisecond
		c.SessionIdle = 30 * time.Millisecond
		c.JanitorInterval = 5 * time.Millisecond
	})
	sid := ts.createSession(t, "acme")
	// Submit immediately: the idle clock (set at create) goes stale during
	// the 300ms batch window, an order of magnitude past the 30ms cutoff.
	if code, out := ts.eval(t, sid, "1 + 1"); code != http.StatusOK {
		t.Fatalf("slow-batch eval: HTTP %d: %v", code, out)
	}
	// The answered request refreshed the idle clock; the session must still
	// be live for an immediate follow-up.
	if code, out := ts.eval(t, sid, "2 + 2"); code != http.StatusOK {
		t.Fatalf("follow-up after slow batch: HTTP %d: %v (session expired mid-request?)", code, out)
	}
	// Once truly idle, the session still expires.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.url + "/v2/sessions/" + sid)
		if err != nil {
			t.Fatalf("GET session: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("session with no in-flight requests never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// One /metrics scrape must show per-tenant serving series side by side with
// the per-owner engine pass totals TestServeRealProcesses compares against.
func TestServeMetricsExposition(t *testing.T) {
	ts := newTestServer(t, nil)
	for _, tenant := range []string{"acme", "zen"} {
		sid := ts.createSession(t, tenant)
		if code, _ := ts.eval(t, sid, "x <- runif.matrix(256, 2, 0, 1, 5)\nsum(x)"); code != http.StatusOK {
			t.Fatalf("tenant %s request failed", tenant)
		}
	}
	tr := metricsText(t, ts)
	for _, want := range []string{
		`flashr_serve_requests_total{tenant="acme"} 1`,
		`flashr_serve_requests_total{tenant="zen"} 1`,
		`flashr_materialize_passes_total{owner="acme"}`,
		`flashr_materialize_passes_total{owner="zen"}`,
		"flashr_serve_batches_total",
		"flashr_serve_batch_size_bucket",
		"flashr_serve_accepted_total 2",
		"flashr_serve_answered_total 2",
	} {
		if !strings.Contains(tr, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func metricsText(t *testing.T, ts *testServer) string {
	t.Helper()
	resp, err := http.Get(ts.url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return string(raw)
}

// Tenants with different weights both make progress under concurrent load
// (the fairness *ratio* is asserted end to end by TestServeRealProcesses in
// cmd/flashr-serve; here we only prove the weighted path executes).
func TestServeWeightedTenants(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.TenantWeights = map[string]int{"gold": 4, "bronze": 1}
		c.BatchWait = 20 * time.Millisecond
	})
	sids := map[string]string{}
	for _, tenant := range []string{"gold", "bronze"} {
		sid := ts.createSession(t, tenant)
		if code, _ := ts.eval(t, sid, "x <- runif.matrix(1024, 4, 1, 1, 7)"); code != http.StatusOK {
			t.Fatalf("tenant %s setup failed", tenant)
		}
		sids[tenant] = sid
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, tenant := range []string{"gold", "bronze"} {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				code, out := ts.eval(t, sids[tenant], "sum(x)")
				if code != http.StatusOK {
					errs <- fmt.Errorf("tenant %s: HTTP %d: %v", tenant, code, out)
				}
			}(tenant)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
