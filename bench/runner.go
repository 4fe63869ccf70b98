package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	flashr "repro"
	"repro/internal/safs"
	"repro/internal/trace"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is everything one run of one workload reports. The contract line
// printed last on standard output is its {correct, attempted, failed,
// metrics} subset; -out writes all of it.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Quick    bool    `json:"quick"`
	Host     Host    `json:"host"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// RoundS holds every timed (untraced) round, SetupS every set-up; the
	// reported round_p50_s and setup_s are their medians.
	RoundS  []float64         `json:"round_s"`
	SetupS  []float64         `json:"setup_s"`
	Metrics map[string]Metric `json:"metrics"`
}

func (r *Result) fail(format string, a ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
	}
}

type runConfig struct {
	wl       workloadDef
	sz       sizes
	quick    bool
	seed     int64
	seconds  float64
	traced   bool
	workDir  string // the array and every scratch file live under it
	traceOut string
	log      io.Writer
}

// tracedRounds is the fixed length of the traced phase. It is a constant, not
// a time budget, and the phase draws its parameters from its own stream, so
// the per-round counts of a seed repeat exactly whatever the host's speed.
const tracedRounds = 4

// env is one set-up: an open session and its generated data.
type env struct {
	s        *flashr.Session
	d        *dataset
	arrayDir string
	workers  int
	rng      *rand.Rand
	genS     float64
	warmS    float64
}

func (e *env) close() {
	e.d.free()
	e.s.Close() // the array it closes is removed next
	if e.arrayDir != "" {
		os.RemoveAll(e.arrayDir)
	}
	// Hand the set-up's memory back before the next one, so peak RSS is one
	// set-up's and not the sum of several.
	debug.FreeOSMemory()
}

// counters is one reading of everything the program counts: the session's
// MaterializeStats, the array's safs.Stats and the NUMA access tallies. They
// are read at the same boundaries as the harness spans.
type counters struct {
	ms            flashr.MaterializeStats
	fs            safs.Stats
	local, remote int64
}

func (e *env) counters() counters {
	c := counters{ms: e.s.TotalMaterializeStats()}
	if fs := e.s.FS(); fs != nil {
		c.fs = fs.Stats()
	}
	c.local, c.remote = e.s.Engine().Config().Topo.Stats()
	return c
}

// sub is the change from an earlier reading o.
func (c counters) sub(o counters) counters {
	return counters{ms: c.ms.Sub(o.ms), local: c.local - o.local, remote: c.remote - o.remote,
		fs: safs.Stats{
			BytesRead: c.fs.BytesRead - o.fs.BytesRead, BytesWritten: c.fs.BytesWritten - o.fs.BytesWritten,
			Reads: c.fs.Reads - o.fs.Reads, Writes: c.fs.Writes - o.fs.Writes,
			ChecksumFailures: c.fs.ChecksumFailures - o.fs.ChecksumFailures, Retries: c.fs.Retries - o.fs.Retries,
			VerifyTime: c.fs.VerifyTime - o.fs.VerifyTime,
		}}
}

// stepRec is one executed step: its harness span and the counter deltas read
// at the span's boundaries.
type stepRec struct {
	name string
	span int
	wall time.Duration
	counters
}

// execStep runs one step on the full-size data between two counter
// readings and applies the per-round invariants. A returned error is a
// failed operation.
func (e *env) execStep(st step, p params, rec *recorder, parent int) (stepRec, values, error) {
	before := e.counters()
	id := rec.begin("step", st.name, parent)
	v, err := st.run(e.s, e.d, p)
	wall := rec.end(id)
	sr := stepRec{name: st.name, span: id, wall: wall, counters: e.counters().sub(before)}
	switch {
	case err != nil:
	case sr.ms.Passes < 1:
		err = fmt.Errorf("executed no pass: the whole step was served from the result cache")
	case sr.fs.ChecksumFailures != 0:
		err = fmt.Errorf("%d checksum failures on a fault-free array", sr.fs.ChecksumFailures)
	default:
		if err = finite(v); err == nil && st.check != nil {
			err = st.check(v, e.d, p)
		}
	}
	return sr, v, err
}

// setUp opens the session, generates the data from the seed and runs the
// warm-up round: every step once at full size (caches fill, memory is
// touched, invariants hold) and once on the twin against the plain-loop
// reference.
func setUp(cfg runConfig, res *Result, idx int) (*env, error) {
	t0 := time.Now()
	e := &env{workers: benchWorkers(), rng: rand.New(rand.NewSource(cfg.seed))}
	opts := flashr.Options{Workers: e.workers, Owner: "bench", ResultCacheBytes: resultCacheBytes, PartRows: cfg.wl.partRows}
	if cfg.wl.em {
		e.arrayDir = filepath.Join(cfg.workDir, fmt.Sprintf("array-%d", idx))
		opts.EM = true
		for i := 0; i < arrayDrive; i++ {
			opts.SSDDirs = append(opts.SSDDirs, filepath.Join(e.arrayDir, fmt.Sprintf("ssd-%02d", i)))
		}
	}
	var err error
	if e.s, err = flashr.NewSession(opts); err != nil {
		return nil, err
	}
	tg := time.Now()
	if e.d, err = cfg.wl.gen(e.s, cfg.wl.rows(cfg.sz), cfg.seed); err != nil {
		e.s.Close()
		return nil, fmt.Errorf("generating %s data: %w", cfg.wl.name, err)
	}
	e.genS = time.Since(tg).Seconds()

	twin, err := cfg.wl.gen(e.s, cfg.sz.twinRows, cfg.seed)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("generating %s twin: %w", cfg.wl.name, err)
	}
	defer twin.free()
	twinDense, err := gather(twin)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("gathering %s twin: %w", cfg.wl.name, err)
	}
	rec := newRecorder() // warm-up spans are not reported
	var warm time.Duration
	for _, st := range cfg.wl.step {
		p := st.draw(e.rng)
		res.Attempted++
		sr, v, err := e.execStep(st, p, rec, 0)
		warm += sr.wall
		if err == nil && st.warm != nil {
			err = st.warm(e.s, e.d, p, v)
		}
		if err != nil {
			res.fail("warm-up %s: %v", st.name, err)
			continue
		}
		got, err := st.run(e.s, twin, p)
		if err == nil {
			err = compareValues(got, st.ref(twinDense, p))
		}
		if err != nil {
			res.fail("oracle %s (n=%d): %v", st.name, cfg.sz.twinRows, err)
		}
	}
	e.warmS = warm.Seconds()
	res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	return e, nil
}

// phase is one measured stretch of rounds.
type phase struct {
	rounds    []float64 // seconds
	steps     []stepRec
	total     counters // change over the whole phase
	spans     []hspan  // the phase's step spans, in time order
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	heapPeak  uint64
	data      *trace.Data   // engine spans (traced phase only)
	traceZero time.Duration // the engine tracer's epoch on the harness clock
}

// measure runs rounds until both minRounds and the time budget are met. With
// traced set, the engine's span recording is on for exactly this phase.
func (e *env) measure(cfg runConfig, res *Result, rec *recorder, run int, rng *rand.Rand, budget time.Duration, minRounds int, traced, sampleHeap bool) (phase, error) {
	var ph phase
	eng := e.s.Engine()
	if traced {
		ph.traceZero = time.Since(rec.epoch)
		eng.StartTrace()
	} else if eng.Tracing() {
		return ph, fmt.Errorf("engine tracing is on during the untraced rounds")
	}
	runtime.ReadMemStats(&ph.mem0)
	before := e.counters()
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < budget; r++ {
		round := rec.begin("round", fmt.Sprint(r), run)
		for _, st := range cfg.wl.step {
			res.Attempted++
			sr, _, err := e.execStep(st, st.draw(rng), rec, round)
			if err != nil {
				res.fail("round %d %s: %v", r, st.name, err)
			}
			ph.steps = append(ph.steps, sr)
			ph.spans = append(ph.spans, rec.spans[sr.span-1])
			if sampleHeap {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapInuse > ph.heapPeak {
					ph.heapPeak = m.HeapInuse
				}
			}
		}
		ph.rounds = append(ph.rounds, rec.end(round).Seconds())
	}
	ph.total = e.counters().sub(before)
	runtime.ReadMemStats(&ph.mem1)
	if traced {
		ph.data = eng.StopTrace()
		if err := trace.Verify(ph.data); err != nil {
			return ph, fmt.Errorf("engine trace is malformed: %w", err)
		}
	}
	return ph, nil
}

// runWorkload is one run of one workload in this process.
func runWorkload(cfg runConfig) (*Result, error) {
	wl := cfg.wl
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchWorkers()))
	res := &Result{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Quick: cfg.quick,
		Metrics: map[string]Metric{}}
	res.Host = hostFingerprint(cfg.workDir, wl.rows(cfg.sz)*wl.cols*8)
	cpu0 := readCPUTimes()
	var ceil Ceilings
	if cfg.traced {
		ceil = measureCeilings(cfg.sz.ceilBytes)
		debug.FreeOSMemory()
	}

	var e *env
	for k := 0; k < cfg.sz.setups; k++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(cfg, res, k); err != nil {
			return nil, err
		}
	}
	defer e.close()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	minRounds := 4
	if cfg.traced {
		budget /= 2 // the traced phase and the probes take the other half
	}
	if cfg.quick {
		budget, minRounds = 0, 2
	}
	rec := newRecorder()
	run := rec.begin("run", wl.name, 0)
	timed, err := e.measure(cfg, res, rec, run, e.rng, budget, minRounds, false, cfg.traced)
	if err != nil {
		return nil, err
	}
	res.RoundS = timed.rounds
	p25, p50, p75 := quartiles(timed.rounds)

	if !cfg.traced {
		rec.end(run)
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = Metric{median(res.SetupS), "s"}
		res.Metrics["round_p50_s"] = Metric{p50, "s"}
		res.Metrics["peak_rss_mb"] = Metric{rss, "MiB"}
		fmt.Fprintf(cfg.log, "%s seed=%d: %d timed rounds, quartiles %.4f / %.4f / %.4f s, max %.4f s; %d set-ups %v s\n",
			wl.name, cfg.seed, len(timed.rounds), p25, p50, p75, maxOf(timed.rounds), len(res.SetupS), res.SetupS)
		res.Correct = res.Failed == 0
		return res, nil
	}

	nTraced := tracedRounds
	if cfg.quick {
		nTraced = 2
	}
	// Its own parameter stream: the traced rounds are the same for a seed
	// however many timed rounds the host managed before them.
	trng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed7ace))
	tr, err := e.measure(cfg, res, rec, run, trng, 0, nTraced, true, false)
	if err != nil {
		return nil, err
	}
	rec.end(run)

	l := &ledger{cfg: cfg, e: e, res: res, timed: timed, traced: tr, ceil: ceil, p50: p50}
	l.put("bench.warmup_round_s", e.warmS, "s")
	l.put("bench.round_p25_s", p25, "s")
	l.put("bench.round_p75_s", p75, "s")
	l.put("bench.round_max_s", maxOf(timed.rounds), "s")
	if err := l.fill(); err != nil {
		return nil, err
	}
	l.put("host.steal_pct", stealPct(cpu0, readCPUTimes()), "%")

	passStep := attachPasses(tr.data.Events, tr.spans, tr.traceZero)
	l.printSteps(passStep)
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return nil, err
		}
		// The trace covers the traced phase: the run span is clipped to it and
		// the rounds that ran with tracing off are left out.
		spans := []hspan{rec.spans[run-1]}
		spans[0].Start = tr.traceZero
		for _, sp := range rec.spans {
			if sp.ID != run && sp.Start >= tr.traceZero {
				spans = append(spans, sp)
			}
		}
		if err := writeChromeTrace(f, tr.data, spans, tr.traceZero, passStep); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(w io.Writer, res *Result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
