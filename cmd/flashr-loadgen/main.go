// Command flashr-loadgen drives a running flashr-serve over its /v2 surface
// and reports per-tenant throughput plus batching statistics. It is the
// client in flashr-serve's real-process test and in the EXPERIMENTS
// throughput-vs-batch-wait recipes.
//
// Two modes:
//
//   - Closed-loop (default): -clients concurrent clients each create one
//     serving session under their tenant, run the -setup program once, then
//     issue -requests sequential -program evals.
//
//     flashr-loadgen -addr http://127.0.0.1:8080 -tenants 2 -clients 8 -requests 12
//
//   - Open-loop (-rate > 0): requests arrive as a Poisson process at -rate
//     req/s for -duration, regardless of how fast the server answers — the
//     arrival pattern the adaptive batcher is tuned against. Sessions are
//     pooled per tenant and arrivals dispatch onto them round-robin.
//
//     flashr-loadgen -addr http://127.0.0.1:8080 -rate 200 -duration 10s
//
// With -auth "tenant-0=tok0,tenant-1=tok1", requests carry the tenant's
// bearer token. The exit code is nonzero if any request fails outright; with
// -allow-reject, shed 429/503s count as rejected (not lost) so the tool can
// overlap a server's SIGTERM drain.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type result struct {
	tenant    string
	ok        int
	rejected  int
	failed    int
	batched   int // responses whose batch_size > 1
	latencies []time.Duration
}

// client bundles the per-tenant request state shared by both modes.
type client struct {
	hc    *http.Client
	addr  string
	token string // bearer token, "" = no auth header
}

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "flashr-serve base URL")
		tenants     = flag.Int("tenants", 2, "number of tenants to spread clients across")
		clients     = flag.Int("clients", 8, "concurrent clients (closed-loop) or pooled sessions per tenant (open-loop)")
		requests    = flag.Int("requests", 12, "closed-loop: eval requests per client")
		rate        = flag.Float64("rate", 0, "open-loop: Poisson arrival rate in req/s across all tenants (0 = closed-loop)")
		duration    = flag.Duration("duration", 10*time.Second, "open-loop: how long to generate arrivals")
		seed        = flag.Int64("seed", 1, "open-loop: arrival-process RNG seed")
		setup       = flag.String("setup", "x <- runif.matrix(4096, 4, 0, 1, 7)", "program run once per session before the request loop")
		program     = flag.String("program", "sum(x * x)", "program each request evaluates; a literal {i} is replaced by the global request index (defeats result caching)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		auth        = flag.String("auth", "", "comma-separated tenant=token pairs sent as Authorization: Bearer")
		allowReject = flag.Bool("allow-reject", false, "treat 429/503 responses as rejected rather than failed (drain overlap)")
	)
	flag.Parse()
	if *tenants < 1 || *clients < 1 {
		fmt.Fprintln(os.Stderr, "flashr-loadgen: -tenants and -clients must be ≥ 1")
		os.Exit(2)
	}
	tokens, err := parseAuth(*auth)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flashr-loadgen:", err)
		os.Exit(2)
	}

	hc := &http.Client{Timeout: *timeout}
	clientFor := func(tenant string) client {
		return client{hc: hc, addr: *addr, token: tokens[tenant]}
	}

	var results []result
	var wall time.Duration
	if *rate > 0 {
		results, wall = runOpenLoop(clientFor, *tenants, *clients, *rate, *duration, *seed, *setup, *program, *allowReject)
	} else {
		results = make([]result, *clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tenant := fmt.Sprintf("tenant-%d", c%*tenants)
				results[c] = runClient(clientFor(tenant), tenant, *setup, *program, *requests, c**requests, *allowReject)
			}(c)
		}
		wg.Wait()
		wall = time.Since(start)
	}

	perTenant := map[string]*result{}
	var tenantNames []string
	totalOK, totalRejected, totalFailed, totalBatched := 0, 0, 0, 0
	var all []time.Duration
	for i := range results {
		r := &results[i]
		agg, ok := perTenant[r.tenant]
		if !ok {
			agg = &result{tenant: r.tenant}
			perTenant[r.tenant] = agg
			tenantNames = append(tenantNames, r.tenant)
		}
		agg.ok += r.ok
		agg.rejected += r.rejected
		agg.failed += r.failed
		agg.batched += r.batched
		agg.latencies = append(agg.latencies, r.latencies...)
		totalOK += r.ok
		totalRejected += r.rejected
		totalFailed += r.failed
		totalBatched += r.batched
		all = append(all, r.latencies...)
	}
	sort.Strings(tenantNames)

	if *rate > 0 {
		fmt.Printf("flashr-loadgen: open-loop %.1f req/s for %s over %d tenants (wall %s)\n",
			*rate, *duration, *tenants, wall.Round(time.Millisecond))
	} else {
		fmt.Printf("flashr-loadgen: %d clients × %d requests over %d tenants in %s\n",
			*clients, *requests, *tenants, wall.Round(time.Millisecond))
	}
	minTput, maxTput := 0.0, 0.0
	for i, tn := range tenantNames {
		r := perTenant[tn]
		tput := float64(r.ok) / wall.Seconds()
		if i == 0 || tput < minTput {
			minTput = tput
		}
		if tput > maxTput {
			maxTput = tput
		}
		fmt.Printf("  %-12s ok=%-4d rejected=%-3d failed=%-3d batched=%-4d %.1f req/s p50=%s p99=%s\n",
			tn, r.ok, r.rejected, r.failed, r.batched, tput,
			percentile(r.latencies, 0.50).Round(time.Microsecond),
			percentile(r.latencies, 0.99).Round(time.Microsecond))
	}
	fmt.Printf("total: ok=%d rejected=%d failed=%d batched=%d throughput=%.1f req/s p50=%s p99=%s\n",
		totalOK, totalRejected, totalFailed, totalBatched,
		float64(totalOK)/wall.Seconds(),
		percentile(all, 0.50).Round(time.Microsecond), percentile(all, 0.99).Round(time.Microsecond))
	if len(tenantNames) > 1 && minTput > 0 {
		fmt.Printf("fairness: max/min tenant throughput = %.2f\n", maxTput/minTput)
	}
	if totalFailed > 0 {
		os.Exit(1)
	}
}

// runOpenLoop generates Poisson arrivals at rate req/s for the given duration
// and dispatches each onto a pre-created pool of sessions (per tenant,
// round-robin), never waiting for the previous request to finish. Concurrency
// is bounded only by a large safety semaphore, so server-side queueing shows
// up as client-observed latency — the signal the adaptive batcher trades
// against.
func runOpenLoop(clientFor func(string) client, tenants, perTenantSessions int, rate float64, duration time.Duration, seed int64, setup, program string, allowReject bool) ([]result, time.Duration) {
	type sess struct {
		cl  client
		sid string
	}
	var pools [][]sess
	tenantNames := make([]string, tenants)
	for t := 0; t < tenants; t++ {
		tenant := fmt.Sprintf("tenant-%d", t)
		tenantNames[t] = tenant
		cl := clientFor(tenant)
		var pool []sess
		for i := 0; i < perTenantSessions; i++ {
			sid, err := createSession(cl, tenant)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flashr-loadgen: %s: create session: %v\n", tenant, err)
				os.Exit(1)
			}
			if setup != "" {
				if _, _, err := eval(cl, sid, setup); err != nil {
					fmt.Fprintf(os.Stderr, "flashr-loadgen: %s: setup: %v\n", tenant, err)
					os.Exit(1)
				}
			}
			pool = append(pool, sess{cl: cl, sid: sid})
		}
		pools = append(pools, pool)
	}
	// Separate warmup from measurement: the setup evals are traffic too, and
	// without a settle the measured phase starts with their arrival history
	// (and any adaptive state derived from it) still hot.
	time.Sleep(250 * time.Millisecond)

	rng := rand.New(rand.NewSource(seed))
	sem := make(chan struct{}, 4096)
	var mu sync.Mutex
	agg := make([]result, tenants)
	for t := range agg {
		agg[t].tenant = tenantNames[t]
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(duration)
	next := start
	for i := 0; ; i++ {
		// Exponential inter-arrival gap: a Poisson process at the target rate.
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		next = next.Add(gap)
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		t := i % tenants
		s := pools[t][(i/tenants)%perTenantSessions]
		sem <- struct{}{}
		wg.Add(1)
		go func(t, i int, s sess) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			code, batchSize, err := eval(s.cl, s.sid, instantiate(program, i))
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			r := &agg[t]
			switch {
			case err == nil && code == http.StatusOK:
				r.ok++
				r.latencies = append(r.latencies, lat)
				if batchSize > 1 {
					r.batched++
				}
			case err == nil && allowReject && (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable):
				r.rejected++
			default:
				if err == nil {
					err = fmt.Errorf("HTTP %d", code)
				}
				fmt.Fprintf(os.Stderr, "flashr-loadgen: %s: %v\n", tenantNames[t], err)
				r.failed++
			}
		}(t, i, s)
	}
	wg.Wait()
	return agg, time.Since(start)
}

// instantiate substitutes the request's global index for a literal {i}, so a
// templated -program yields a distinct DAG per request instead of hitting the
// engine's result cache on every repeat.
func instantiate(program string, i int) string {
	return strings.ReplaceAll(program, "{i}", strconv.Itoa(i))
}

// runClient is one closed-loop client: create session, setup, request loop.
// base offsets this client's {i} indexes so they stay globally unique.
func runClient(cl client, tenant, setup, program string, n, base int, allowReject bool) result {
	res := result{tenant: tenant}
	sid, err := createSession(cl, tenant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashr-loadgen: %s: create session: %v\n", tenant, err)
		res.failed += n
		return res
	}
	if setup != "" {
		if _, _, err := eval(cl, sid, setup); err != nil {
			fmt.Fprintf(os.Stderr, "flashr-loadgen: %s: setup: %v\n", tenant, err)
			res.failed += n
			return res
		}
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		code, batchSize, err := eval(cl, sid, instantiate(program, base+i))
		switch {
		case err == nil && code == http.StatusOK:
			res.ok++
			res.latencies = append(res.latencies, time.Since(t0))
			if batchSize > 1 {
				res.batched++
			}
		case err == nil && allowReject && (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable):
			res.rejected++
		default:
			if err == nil {
				err = fmt.Errorf("HTTP %d", code)
			}
			fmt.Fprintf(os.Stderr, "flashr-loadgen: %s: request %d: %v\n", tenant, i, err)
			res.failed++
		}
	}
	return res
}

func (c client) post(path string, body any) (*http.Response, error) {
	raw, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, c.addr+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return c.hc.Do(req)
}

func createSession(cl client, tenant string) (string, error) {
	resp, err := cl.post("/v2/sessions", map[string]string{"tenant": tenant})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.Session == "" {
		return "", fmt.Errorf("bad session response %q", raw)
	}
	return out.Session, nil
}

// eval submits one program and returns the HTTP status and reported batch
// size. A transport-level failure returns err; an HTTP error status does not.
func eval(cl client, sid, program string) (code, batchSize int, err error) {
	resp, err := cl.post("/v2/sessions/"+sid+"/eval", map[string]string{"program": program})
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var out struct {
			BatchSize int `json:"batch_size"`
		}
		_ = json.Unmarshal(raw, &out)
		return resp.StatusCode, out.BatchSize, nil
	}
	return resp.StatusCode, 0, nil
}

// parseAuth turns "tenant=token,..." into a tenant→token map.
func parseAuth(s string) (map[string]string, error) {
	out := map[string]string{}
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		tenant, token, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || tenant == "" || token == "" {
			return nil, fmt.Errorf("-auth: bad pair %q (want tenant=token)", pair)
		}
		out[tenant] = token
	}
	return out, nil
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
