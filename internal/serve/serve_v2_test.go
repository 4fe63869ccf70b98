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
	"strings"
	"sync"
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

func (ts *testServer) createV2Session(t *testing.T, tenant string) string {
	t.Helper()
	code, out := ts.reqJSON(t, http.MethodPost, "/v2/sessions", "", map[string]string{"tenant": tenant})
	if code != http.StatusOK {
		t.Fatalf("create v2 session: HTTP %d: %v", code, out)
	}
	id, _ := out["session"].(string)
	if id == "" {
		t.Fatalf("create v2 session: no id in %v", out)
	}
	return id
}

func (ts *testServer) evalV2(t *testing.T, sid, program string) (int, map[string]any) {
	t.Helper()
	return ts.reqJSON(t, http.MethodPost, "/v2/sessions/"+sid+"/eval", "", map[string]string{"program": program})
}

// matrixHandle extracts the handle object at results[i] of a v2 eval reply.
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

// ---- versioned surface ----

func TestServeV1DeprecationHeader(t *testing.T) {
	ts := newTestServer(t, nil)
	resp := ts.do(t, http.MethodPost, "/v1/sessions", "", map[string]string{"tenant": "acme"})
	resp.Body.Close()
	if got := resp.Header.Get("Deprecation"); got != "true" {
		t.Errorf("v1 Deprecation header = %q, want \"true\"", got)
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "successor-version") {
		t.Errorf("v1 Link header = %q, want successor-version pointer", link)
	}
	resp = ts.do(t, http.MethodPost, "/v2/sessions", "", map[string]string{"tenant": "acme"})
	resp.Body.Close()
	if got := resp.Header.Get("Deprecation"); got != "" {
		t.Errorf("v2 carries Deprecation header %q", got)
	}
}

// TestServeV2Conformance checks that v1 and v2 agree on everything except the
// result encoding: scalar statements render the same text, and a v2 matrix
// handle's fetched bytes are the values v1 would have printed.
func TestServeV2Conformance(t *testing.T) {
	ts := newTestServer(t, nil)
	prog := oneMatrix + "\nsum(x)\nnrow(x) * ncol(x)"

	v1sid := ts.createSession(t, "acme")
	code, v1out := ts.eval(t, v1sid, prog)
	if code != http.StatusOK {
		t.Fatalf("v1 eval: HTTP %d: %v", code, v1out)
	}
	v1res := results(v1out)

	v2sid := ts.createV2Session(t, "acme")
	code, v2out := ts.evalV2(t, v2sid, prog)
	if code != http.StatusOK {
		t.Fatalf("v2 eval: HTTP %d: %v", code, v2out)
	}
	v2raw, _ := v2out["results"].([]any)
	if len(v1res) != 3 || len(v2raw) != 3 {
		t.Fatalf("result counts v1=%d v2=%d, want 3", len(v1res), len(v2raw))
	}
	// Statement 0 is an assignment: blank on v1, null on v2.
	if v1res[0] != "" || v2raw[0] != nil {
		t.Errorf("assignment rendered v1=%q v2=%v, want blank/null", v1res[0], v2raw[0])
	}
	// Statements 1 and 2 are scalars: identical text on both surfaces.
	for i := 1; i < 3; i++ {
		m, ok := v2raw[i].(map[string]any)
		if !ok || m["type"] != "value" {
			t.Fatalf("v2 results[%d] = %v, want a value", i, v2raw[i])
		}
		if text := m["text"]; text != v1res[i] {
			t.Errorf("results[%d]: v2 text %q != v1 text %q", i, text, v1res[i])
		}
	}
	if v1res[1] != "[1] 900" {
		t.Errorf("sum(x) = %q, want \"[1] 900\"", v1res[1])
	}

	// A printed matrix becomes a handle whose fetched values match exactly.
	code, out := ts.evalV2(t, v2sid, "x")
	if code != http.StatusOK {
		t.Fatalf("v2 eval x: HTTP %d: %v", code, out)
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
	sid := ts.createV2Session(t, "acme")
	if code, out := ts.evalV2(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	code, out := ts.evalV2(t, sid, "x")
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

func TestServeV2HandleIdleExpiry(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.ResultIdle = 30 * time.Millisecond
		c.JanitorInterval = 10 * time.Millisecond
	})
	sid := ts.createV2Session(t, "acme")
	if code, out := ts.evalV2(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	code, out := ts.evalV2(t, sid, "x")
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
	sid := ts.createV2Session(t, "acme")
	if code, out := ts.evalV2(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	code, out := ts.evalV2(t, sid, "x")
	if code != http.StatusOK {
		t.Fatalf("eval x: HTTP %d: %v", code, out)
	}
	h, _, _, _ := matrixHandle(t, out, 0)

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sid := ts.createV2Session(t, fmt.Sprintf("other-%d", c))
			if code, out := ts.evalV2(t, sid, "y <- rnorm.matrix(512, 4, 0, 1, 11)"); code != http.StatusOK {
				t.Errorf("worker %d setup: HTTP %d: %v", c, code, out)
				return
			}
			for i := 0; i < 5; i++ {
				if code, out := ts.evalV2(t, sid, "sum(y * y)"); code != http.StatusOK {
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
	h, err := rt.put(tn, pr, 0)
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
	if _, err := rt.put(tn, pin(), quota); err != nil {
		t.Fatalf("first put: %v", err)
	}
	p2 := pin()
	if _, err := rt.put(tn, p2, quota); err != errPinnedQuota {
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
	sid := ts.createV2Session(t, "acme")

	// 100000×10 doubles = 8 MB > the 1 MiB budget: refused pre-eval.
	code, out := ts.evalV2(t, sid, "x <- runif.matrix(100000, 10, 0, 1, 7)\nsum(x)")
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
	code, out = ts.evalV2(t, sid, "y <- runif.matrix(100, 2, 0, 1, 7)\nsum(y)")
	if code != http.StatusOK {
		t.Fatalf("under-budget eval: HTTP %d: %v", code, out)
	}
	if passes := tn.fs.TotalMaterializeStats().Passes; passes == 0 {
		t.Fatal("admitted program ran no passes")
	}
}

func TestServePinnedQuotaAdmission(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.MaxPinnedBytesPerTenant = 4096 })
	sid := ts.createV2Session(t, "acme")
	if code, out := ts.evalV2(t, sid, oneMatrix); code != http.StatusOK {
		t.Fatalf("setup: HTTP %d: %v", code, out)
	}
	// Printing x would pin 7200 bytes > the 4096 quota: refused at admission.
	code, out := ts.evalV2(t, sid, "x")
	if code != http.StatusRequestEntityTooLarge || out["code"] != CodeQuotaExceeded {
		t.Fatalf("over-quota print: HTTP %d %v, want 413 %s", code, out, CodeQuotaExceeded)
	}
	// A slice under quota pins fine, and releasing it returns the bytes.
	code, out = ts.evalV2(t, sid, "head(x, 10)")
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
	code, out = ts.reqJSON(t, http.MethodPost, "/v1/sessions", "tok-a", map[string]string{"tenant": "bob"})
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
	sid := ts.createV2Session(t, "acme")
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
		if st.Event != "stmt" || st.Index != i {
			t.Fatalf("event %d = %+v, want stmt index %d", 2*i+1, st, i)
		}
	}
	if done := events[6]; done.Event != "done" || done.Stmts != 3 {
		t.Fatalf("final event %+v, want done with 3 stmts", events[6])
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
			sid := ts.createV2Session(t, "acme")
			code, out := ts.evalV2(t, sid, tc.program)
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
}

// TestBatcherAdaptiveWindow proves the batcher consults the window hook per
// batch: with a huge fixed maxWait but a tiny adaptive window, a lone request
// still flushes promptly.
func TestBatcherAdaptiveWindow(t *testing.T) {
	done := make(chan []*Request, 1)
	var b *Batcher
	b = NewAdaptiveBatcher(8, time.Hour, 16,
		func() time.Duration { return 2 * time.Millisecond },
		func(id string, reqs []*Request) {
			done <- reqs
			for _, r := range reqs {
				b.deliver(r, &Response{})
			}
		})
	defer b.Drain(context.Background())
	ch, err := b.Submit(&Request{Ctx: context.Background(), Program: "1"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case reqs := <-done:
		if len(reqs) != 1 {
			t.Fatalf("batch of %d, want 1", len(reqs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch never flushed under adaptive window")
	}
	if wait := time.Since(start); wait > time.Second {
		t.Fatalf("flush took %s; adaptive window ignored", wait)
	}
	<-ch
}

// TestServeAdaptiveConfigWiring checks New wires the controller in when
// BatchWaitCeil is set, exposing its gauges.
func TestServeAdaptiveConfigWiring(t *testing.T) {
	ts := newTestServer(t, func(c *Config) {
		c.BatchWaitFloor = time.Millisecond
		c.BatchWaitCeil = 20 * time.Millisecond
	})
	sid := ts.createV2Session(t, "acme")
	if code, out := ts.evalV2(t, sid, "1 + 1"); code != http.StatusOK {
		t.Fatalf("eval: HTTP %d: %v", code, out)
	}
	resp := ts.do(t, http.MethodGet, "/metrics", "", nil)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{"flashr_serve_batch_window_seconds", "flashr_serve_arrival_rate"} {
		if !bytes.Contains(raw, []byte(metric)) {
			t.Errorf("metrics missing %s", metric)
		}
	}
}
