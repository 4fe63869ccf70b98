// Command bench is the repository's benchmark: four closed-loop,
// single-client workloads over the public flashr / ml API, three end-to-end
// metrics per workload and a per-layer ledger from a separate traced run.
// README.md in this directory is the catalogue; BENCHMARK.json at the root
// of the repository names the metrics and their bounds.
//
//	go run ./bench                               every workload, timed then traced
//	go run ./bench -workload em_scan -trace 1    one workload in this process
//	go run ./bench -compare a.json b.json        verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	noTraced bool
	traced   bool
	runs     int
	out      string
	traceOut string
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "run this one workload in this process (im_chain, im_blas, em_scan, em_writeback) and print its result line last")
	fl.Int64Var(&o.seed, "seed", 1, "seed of the generated data and of the per-round parameters")
	fl.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the timed rounds of a run measure")
	fl.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics with engine tracing off, 1 the per-layer metrics from a traced phase")
	fl.BoolVar(&o.quick, "quick", false, "smoke sizes (n = 16,384, 2 rounds); numbers are not comparable with a full run")
	fl.BoolVar(&o.noTraced, "no-traced", false, "without -workload: skip the traced runs")
	fl.BoolVar(&o.traced, "traced", false, "without -workload: only the traced runs")
	fl.IntVar(&o.runs, "runs", 1, "without -workload: timed runs per workload, on seeds seed, seed+1, …")
	fl.StringVar(&o.out, "out", "", "write every result as JSON to this file")
	fl.StringVar(&o.traceOut, "trace-out", "", "with a traced run: write one Chrome trace (engine spans plus harness spans) to this file")
	fl.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	switch {
	case o.compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	case fl.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fl.Arg(0))
		return 2
	case o.workload != "":
		return runOne(o, stdout, stderr)
	}
	return runAll(o, stdout, stderr)
}

// workRoot is where arrays and scratch files go: inside the directory the
// command runs from, never outside the checkout. .gitignore names it.
const workRoot = ".bench_work"

func newWorkDir(name string) (string, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workRoot, name+"-")
}

// dropWorkDir removes a run's scratch directory, and the root with it unless
// another run still has a directory there (Remove refuses a non-empty one).
func dropWorkDir(dir string) {
	os.RemoveAll(dir)
	_ = os.Remove(workRoot) // fails when non-empty, which means still in use
}

// runOne is the contract mode: one workload, in this process, result line
// last on standard output.
func runOne(o options, stdout, stderr io.Writer) int {
	wl, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	dir, err := newWorkDir(wl.name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer dropWorkDir(dir)
	cfg := runConfig{wl: wl, sz: fullSizes, quick: o.quick, seed: o.seed, seconds: o.seconds, traced: o.trace != 0,
		workDir: dir, traceOut: o.traceOut, log: stdout}
	if o.quick {
		cfg.sz = quickSizes
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %d cores, GOMAXPROCS %d, %s, L2 %d KiB, L3 %d KiB, array root %s (%s); %s\n",
		res.Host.Cores, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.L2KiB, res.Host.L3KiB, res.Host.ArrayRoot, res.Host.ArrayFS, res.Host.CacheNote)
	fmt.Fprintf(stdout, "%s seed=%d traced=%v: %d operations attempted, %d failed\n", wl.name, o.seed, cfg.traced, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(stdout, "  FAILED:", f)
	}
	printMetrics(stdout, res)
	if o.out != "" {
		if err := writeResults(o.out, []*Result{res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Results []*Result `json:"results"`
}

func writeResults(path string, rs []*Result) error {
	b, err := json.MarshalIndent(resultFile{rs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}

// runAll runs every workload, each in a process of its own so that peak RSS
// is the workload's and no GC state is shared: the timed runs first, then
// the shorter traced runs.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := newWorkDir("all")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer dropWorkDir(dir)
	var all []*Result
	failed := false
	child := func(wl string, seed int64, trace int) {
		out := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.json", wl, seed, trace))
		args := []string{"-workload", wl, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-out", out}
		if o.quick {
			args = append(args, "-quick")
		}
		if trace == 1 && o.traceOut != "" {
			args = append(args, "-trace-out", fmt.Sprintf("%s.%s.json", o.traceOut, wl))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", wl, trace, err)
			failed = true
		}
		rs, err := readResults(out)
		if err != nil {
			failed = true
			return
		}
		all = append(all, rs...)
	}
	for _, wl := range workloads {
		if !o.traced {
			for r := 0; r < o.runs; r++ {
				child(wl.name, o.seed+int64(r), 0)
			}
		}
		if !o.noTraced {
			child(wl.name, o.seed, 1)
		}
	}
	if o.out != "" {
		if err := writeResults(o.out, all); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}
