// Command flashr-bench regenerates the paper's evaluation tables and
// figures (§4) at configurable scale.
//
// Usage:
//
//	flashr-bench -experiment fig7a -n 200000
//	flashr-bench -experiment all -n 100000 -read-mbps 400
//	flashr-bench -concurrent 4 -n 100000
//
// Experiments: fig7a, fig7b, fig8, fig9, fig10, table4, table6,
// concurrent, all.
// See DESIGN.md for the paper-to-experiment index and EXPERIMENTS.md for
// recorded results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/benchmark"
	"repro/internal/trace"
)

func main() {
	var cfg benchmark.Config
	flag.IntVar(&cfg.Session.Workers, "workers", runtime.GOMAXPROCS(0), "worker goroutines per engine")
	flag.Float64Var(&cfg.Session.ReadMBps, "read-mbps", 1200, "aggregate SSD read bandwidth (MiB/s, 0=unthrottled)")
	flag.Float64Var(&cfg.Session.WriteMBps, "write-mbps", 1000, "aggregate SSD write bandwidth (MiB/s, 0=unthrottled)")
	flag.BoolVar(&cfg.Session.DisableCSE, "no-cse", false, "disable structural hash-consing and the sub-DAG result cache")
	flag.Int64Var(&cfg.N, "n", 200_000, "base dataset rows (Criteo-sub in the paper is 325M)")
	flag.StringVar(&cfg.SSDRoot, "ssd-root", "", "directory for the simulated SSD array (default: temp dir)")
	flag.IntVar(&cfg.Drives, "drives", 4, "simulated SSD count")
	flag.IntVar(&cfg.Iters, "iters", 5, "fixed iteration count for iterative algorithms")
	flag.Int64Var(&cfg.Seed, "seed", 42, "workload seed")
	flag.Float64Var(&cfg.ReadErrRate, "inject-read-err", 0, "probability of a transient injected read error per stripe request")
	flag.Float64Var(&cfg.FlipBitRate, "inject-flip-bit", 0, "probability of an injected in-flight bit flip per stripe read")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 0, "seed for the injected-fault RNGs (0=derive from -seed)")
	flag.IntVar(&cfg.ConcurrentSessions, "concurrent", 0, "run the concurrent multi-session experiment with N sessions sharing one engine (shorthand for -experiment concurrent)")
	var (
		experiment = flag.String("experiment", "all", "experiment to run (fig7a|fig7b|fig8|fig9|fig10|table4|table6|concurrent|all)")
		cacheMB    = flag.Int64("cache-mb", 0, "sub-DAG result cache budget in MiB (0=engine default, negative=cache off, CSE on)")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON file of every materialization pass (load in chrome://tracing or Perfetto)")
		metrics    = flag.Bool("metrics", false, "dump expfmt metrics from each experiment's EM session before it closes")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address while the benchmark runs")
	)
	flag.Parse()
	if cfg.ConcurrentSessions > 0 && *experiment == "all" {
		*experiment = "concurrent"
	}
	cfg.Session.ResultCacheBytes = *cacheMB << 20
	if *tracePath != "" {
		cfg.Trace = &benchmark.TraceSink{}
	}
	if *metrics {
		cfg.MetricsTo = os.Stdout
	}
	if *debugAddr != "" {
		ds, err := trace.StartDebugServer(*debugAddr, benchmark.LiveMetricsHandler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "flashr-bench: %v\n", err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Printf("debug server on %s (/metrics, /debug/pprof/)\n", ds.Addr())
	}
	o := cfg.Session
	cse := "on"
	if o.DisableCSE {
		cse = "off"
	}
	fmt.Printf("flashr-bench: experiment=%s n=%d workers=%d drives=%d read=%.0fMiB/s write=%.0fMiB/s iters=%d cse=%s\n",
		*experiment, cfg.N, o.Workers, cfg.Drives, o.ReadMBps, o.WriteMBps, cfg.Iters, cse)
	if cfg.ReadErrRate > 0 || cfg.FlipBitRate > 0 {
		fmt.Printf("fault injection: read-err=%.3g flip-bit=%.3g seed=%d\n", cfg.ReadErrRate, cfg.FlipBitRate, cfg.FaultSeed)
	}
	fmt.Println()
	rows, err := benchmark.Run(*experiment, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashr-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(benchmark.Format(rows))
	if cfg.Trace != nil {
		if err := cfg.Trace.WriteChromeFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "flashr-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote execution trace to %s\n", *tracePath)
	}
}
