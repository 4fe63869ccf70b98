// Command flashr-shardworker runs one shard worker of a distributed FlashR
// session: a full engine behind the length-prefixed TCP shard protocol. A
// coordinator (flashr.NewSession with Options.Sharding listing this worker's
// address in Addrs) pushes leaf partitions, drives materialization passes, and pulls
// raw sink partials; tall outputs stay resident here between passes.
//
//	flashr-shardworker -listen 127.0.0.1:7070 -part-rows 16384
//	flashr-shardworker -listen :7070 -ssd-root /data/shard0 -read-mbps 400
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// RPCs finish, the accepted==answered accounting is proven, and the process
// exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/safs"
	"repro/internal/shard"
	"repro/internal/trace"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7070", "TCP listen address for the shard protocol")
		partRows   = flag.Int("part-rows", 0, "I/O partition height; must match the coordinator (0 = engine default)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "engine worker goroutines")
		ssdRoot    = flag.String("ssd-root", "", "keep shard matrices out-of-core on a simulated SSD array at this path (default: in-memory)")
		drives     = flag.Int("drives", 4, "simulated SSD count")
		readMBps   = flag.Float64("read-mbps", 0, "SSD read throttle (0 = unthrottled)")
		writeMBps  = flag.Float64("write-mbps", 0, "SSD write throttle")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this extra address")
		drainWait  = flag.Duration("drain-wait", 30*time.Second, "graceful shutdown budget before forced exit")
		rebindWait = flag.Duration("rebind-wait", 5*time.Second, "keep retrying the listen bind for this long (a restarted worker may race its predecessor's port)")
	)
	flag.Parse()

	cfg := core.Config{Workers: *workers, PartRows: *partRows}
	mode := "in-memory"
	if *ssdRoot != "" {
		fs, err := safs.Open(safs.Config{Drives: safs.DriveDirs(*ssdRoot, *drives), ReadMBps: *readMBps, WriteMBps: *writeMBps})
		if err != nil {
			fatal(err)
		}
		defer fs.Close()
		cfg.FS = fs
		cfg.EM = true
		mode = fmt.Sprintf("out-of-core on %d simulated SSDs", *drives)
	}

	w, err := shard.NewWorker(cfg)
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	if *debugAddr != "" {
		ds, err := trace.StartDebugServer(*debugAddr, trace.Handler(w.Engine().Metrics()))
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Printf("flashr-shardworker: debug server on %s (/metrics, /debug/pprof/)\n", ds.Addr())
	}

	srv, err := shard.NewServer(*listen, w)
	for deadline := time.Now().Add(*rebindWait); err != nil && time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		srv, err = shard.NewServer(*listen, w)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flashr-shardworker: %s — listening on %s (part-rows=%d boot=%x)\n",
		mode, srv.Addr(), w.Engine().PartRows(), w.Boot())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigc
	fmt.Printf("flashr-shardworker: %s — draining\n", sig)

	// Drain stops accepting and nudges idle connections until in-flight
	// RPCs finish; the watchdog bounds a pathological hang.
	watchdog := time.AfterFunc(*drainWait, func() {
		fmt.Fprintf(os.Stderr, "flashr-shardworker: drain exceeded %s, aborting\n", *drainWait)
		os.Exit(1)
	})
	srv.Drain()
	watchdog.Stop()
	acc, ans := srv.Accepted(), srv.Answered()
	fmt.Printf("flashr-shardworker: drained accepted=%d answered=%d fenced=%d adoptions=%d\n",
		acc, ans, w.FenceRejects(), w.Adoptions())
	if acc != ans {
		fmt.Fprintf(os.Stderr, "flashr-shardworker: drain lost %d accepted requests\n", acc-ans)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashr-shardworker: %v\n", err)
	os.Exit(1)
}
