package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeRealProcesses builds flashr-serve and flashr-loadgen and drives
// them as real processes: a server on a kernel-chosen port over a throttled
// 2-drive array with bearer auth and an admission budget, loaded by 8
// closed-loop clients across 2 tenants. Batching must coalesce (per tenant,
// 0 < engine passes < requests on /metrics), equal-weight tenants must stay
// within 3x throughput, a tokenless request must be refused 401, and SIGTERM
// must drain with accepted == answered > 0 and exit 0.
func TestServeRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts flashr-serve and flashr-loadgen processes")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "flashr-serve")
	loadgenBin := filepath.Join(dir, "flashr-loadgen")
	for bin, pkg := range map[string]string{serveBin: ".", loadgenBin: "../flashr-loadgen"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	const tokens = "tenant-0=tok0,tenant-1=tok1"
	srv := exec.Command(serveBin, "-addr", "127.0.0.1:0",
		"-ssd-root", filepath.Join(dir, "array"), "-drives", "2", "-read-mbps", "300", "-write-mbps", "300",
		"-batch-wait", "25ms", "-auth-tokens", tokens, "-max-est-mb", "1")
	var stderr bytes.Buffer
	srv.Stderr = &stderr
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Process.Kill() })
	// The server prints a startup line, a draining line and a drain line;
	// the buffer holds them all, so the reader never blocks on a test that
	// reads only at startup and at drain.
	lines := make(chan string, 8)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		io.Copy(io.Discard, stdout)
	}()
	var base string
	deadline := time.After(30 * time.Second)
	for base == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				srv.Wait()
				t.Fatalf("flashr-serve exited during startup: %s", stderr.String())
			}
			if _, rest, found := strings.Cut(line, "listening on "); found {
				base = "http://" + strings.Fields(rest)[0]
			}
		case <-deadline:
			t.Fatal("flashr-serve printed no listening address within 30s")
		}
	}

	out, err := exec.Command(loadgenBin, "-addr", base, "-auth", tokens,
		"-tenants", "2", "-clients", "8", "-requests", "12").CombinedOutput()
	if err != nil {
		t.Fatalf("flashr-loadgen: %v\n%s", err, out)
	}
	var ratio float64
	if _, rest, ok := strings.Cut(string(out), "fairness: max/min tenant throughput = "); !ok {
		t.Fatalf("flashr-loadgen reported no fairness ratio:\n%s", out)
	} else if _, err := fmt.Sscan(rest, &ratio); err != nil || ratio > 3 {
		t.Fatalf("tenant throughput ratio %v (%v), want ≤ 3:\n%s", ratio, err, out)
	}
	// The result cache and the rewriter absorb repeats of the one program,
	// so passes < requests below holds even unbatched; responses reporting
	// batch_size > 1 are what show the batcher itself coalescing.
	var ok, rejected, failed, batched int
	if _, rest, found := strings.Cut(string(out), "total: "); !found {
		t.Fatalf("flashr-loadgen printed no total line:\n%s", out)
	} else if _, err := fmt.Sscanf(rest, "ok=%d rejected=%d failed=%d batched=%d", &ok, &rejected, &failed, &batched); err != nil || batched == 0 {
		t.Fatalf("flashr-loadgen total batched=%d (%v), want > 0:\n%s", batched, err, out)
	}

	metrics := scrape(t, base+"/metrics")
	for _, tenant := range []string{"tenant-0", "tenant-1"} {
		reqs, okR := metrics[`flashr_serve_requests_total{tenant="`+tenant+`"}`]
		passes, okP := metrics[`flashr_materialize_passes_total{owner="`+tenant+`"}`]
		if !okR || !okP {
			t.Fatalf("%s: missing requests or passes series on /metrics", tenant)
		}
		if passes <= 0 || passes >= reqs {
			t.Errorf("%s: passes=%v not in (0, requests=%v): batching ineffective", tenant, passes, reqs)
		}
	}

	resp, err := http.Post(base+"/v2/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized || env.Code != "auth" {
		t.Errorf("tokenless session create: HTTP %d code %q, want 401 auth", resp.StatusCode, env.Code)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var acc, ans int64 = -1, -1
	for line := range lines {
		if i := strings.Index(line, "drained "); i >= 0 {
			fmt.Sscanf(line[i:], "drained accepted=%d answered=%d", &acc, &ans)
		}
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("flashr-serve after SIGTERM: %v: %s", err, stderr.String())
	}
	if acc <= 0 || acc != ans {
		t.Fatalf("flashr-serve drained accepted=%d answered=%d, want equal and > 0", acc, ans)
	}
}

// scrape reads the sample lines of a /metrics page into a map from series
// (name plus labels) to value.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
