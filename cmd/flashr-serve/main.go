// Command flashr-serve exposes one shared FlashR engine as a multi-tenant
// HTTP/JSON service: clients create sessions, submit R-flavored programs,
// and read results — scalars as text, matrices as result handles fetched by
// row range — while a request batcher coalesces requests arriving within a
// flush window into shared materialization passes. The window is fixed at
// -batch-wait by default; with -batch-wait-floor below it, the window adapts
// to the measured arrival rate between the two. Each tenant maps to
// PassOptions{Owner, Weight} on the engine, so the pass-admission arbiter
// and per-owner fair I/O queueing enforce per-tenant QoS.
//
//	flashr-serve -addr :8080 -ssd-root /data/flashr -read-mbps 400
//
//	curl -s localhost:8080/v2/sessions -d '{"tenant":"acme"}'
//	curl -s localhost:8080/v2/sessions/<id>/eval \
//	     -d '{"program":"x <- rnorm.matrix(100000, 8)\nsum(x * x)\nhead(x, 5)"}'
//	curl -s 'localhost:8080/v2/results/<handle>?rows=0:5'
//	curl -s localhost:8080/metrics | grep flashr_serve
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// batches flush, every accepted request is answered, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	flashr "repro"
	"repro/internal/safs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		ssdRoot     = flag.String("ssd-root", "", "run out-of-core over a simulated SSD array at this path (default: in-memory)")
		drives      = flag.Int("drives", 4, "simulated SSD count")
		readMBps    = flag.Float64("read-mbps", 0, "SSD read throttle (0 = unthrottled)")
		writeMBps   = flag.Float64("write-mbps", 0, "SSD write throttle")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "engine worker goroutines")
		resCacheMB  = flag.Float64("result-cache-mb", 0, "sub-DAG result cache budget in MiB (0 = engine default, -1 = disabled)")
		passes      = flag.Int("max-passes", 0, "concurrent materialization passes (0 = engine default)")
		batchMax    = flag.Int("batch-max", serve.DefaultMaxBatch, "max requests coalesced per batch")
		batchWait   = flag.Duration("batch-wait", serve.DefaultBatchWait, "longest a batch waits for company before flushing")
		queueDepth  = flag.Int("queue-depth", serve.DefaultQueueDepth, "accept queue bound; beyond it requests shed with 429")
		maxSessions = flag.Int("max-sessions", serve.DefaultMaxSessionsPerTenant, "serving sessions per tenant (-1 = unlimited)")
		maxInflight = flag.Int("max-inflight", serve.DefaultMaxInflightPerTenant, "in-flight requests per tenant (-1 = unlimited)")
		sessionIdle = flag.Duration("session-idle", serve.DefaultSessionIdle, "idle serving sessions expire after this (-1s = never)")
		resultIdle  = flag.Duration("result-idle", 0, "idle result handles expire after this (0 = session-idle, -1s = never)")
		authTokens  = flag.String("auth-tokens", "", "comma-separated tenant=token pairs; when set, requests need Authorization: Bearer <token>")
		waitFloor   = flag.Duration("batch-wait-floor", 0, "shortest flush window; below -batch-wait the window adapts to the arrival rate (0 = -batch-wait, fixed)")
		maxEstMB    = flag.Float64("max-est-mb", 0, "reject programs whose estimated working set exceeds this many MiB (0 = unlimited)")
		maxPinMB    = flag.Float64("max-pinned-mb", 0, "per-tenant byte quota for pinned result handles, in MiB (0 = unlimited)")
		drainWait   = flag.Duration("drain-wait", 30*time.Second, "graceful shutdown budget before forced exit")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this extra address")
	)
	flag.Parse()

	opts := flashr.Options{Workers: *workers, ReadMBps: *readMBps, WriteMBps: *writeMBps,
		MaxConcurrentPasses: *passes}
	if *resCacheMB < 0 {
		opts.ResultCacheBytes = -1
	} else {
		opts.ResultCacheBytes = int64(*resCacheMB * (1 << 20))
	}
	mode := "in-memory (FlashR-IM)"
	if *ssdRoot != "" {
		opts.EM = true
		opts.SSDDirs = safs.DriveDirs(*ssdRoot, *drives)
		mode = fmt.Sprintf("out-of-core on %d simulated SSDs (FlashR-EM)", *drives)
	}
	root, err := flashr.NewSession(opts)
	if err != nil {
		fatal(err)
	}
	defer root.Close()

	tokens, err := parseAuthTokens(*authTokens)
	if err != nil {
		fatal(err)
	}
	sv, err := serve.New(serve.Config{
		Root:                    root,
		MaxBatch:                *batchMax,
		BatchWait:               *batchWait,
		BatchWaitFloor:          *waitFloor,
		QueueDepth:              *queueDepth,
		MaxSessionsPerTenant:    *maxSessions,
		MaxInflightPerTenant:    *maxInflight,
		SessionIdle:             *sessionIdle,
		ResultIdle:              *resultIdle,
		AuthTokens:              tokens,
		MaxEstimatedBytes:       int64(*maxEstMB * (1 << 20)),
		MaxPinnedBytesPerTenant: int64(*maxPinMB * (1 << 20)),
	})
	if err != nil {
		fatal(err)
	}

	if *debugAddr != "" {
		ds, err := trace.StartDebugServer(*debugAddr, trace.Handler(sv.Metrics()))
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Printf("flashr-serve: debug server on %s (/metrics, /debug/pprof/)\n", ds.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: sv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("flashr-serve: %s — listening on %s (batch-max=%d batch-wait=%s)\n",
		mode, ln.Addr(), *batchMax, *batchWait)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("flashr-serve: %s — draining\n", sig)
	case err := <-serveErr:
		fatal(err)
	}

	// Drain: stop accepting (Shutdown waits for in-flight handlers, which
	// block on their batch responses), then flush the batcher and prove the
	// accounting balances.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "flashr-serve: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := sv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "flashr-serve: drain: %v\n", err)
		os.Exit(1)
	}
	acc, ans := sv.Accepted(), sv.Answered()
	fmt.Printf("flashr-serve: drained accepted=%d answered=%d\n", acc, ans)
	if acc != ans {
		fmt.Fprintf(os.Stderr, "flashr-serve: drain lost %d accepted requests\n", acc-ans)
		os.Exit(1)
	}
}

// parseAuthTokens turns "tenant=token,tenant2=token2" into the Config's
// token→tenant map. Empty input disables auth.
func parseAuthTokens(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		tenant, token, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || tenant == "" || token == "" {
			return nil, fmt.Errorf("-auth-tokens: bad pair %q (want tenant=token)", pair)
		}
		if prev, dup := out[token]; dup {
			return nil, fmt.Errorf("-auth-tokens: token for %q already assigned to %q", tenant, prev)
		}
		out[token] = tenant
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashr-serve: %v\n", err)
	os.Exit(1)
}
