package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/trace"
)

func quickRun(t *testing.T, wl workloadDef, traced bool, traceOut string) *Result {
	t.Helper()
	var log bytes.Buffer
	res, err := runWorkload(runConfig{wl: wl, sz: quickSizes, quick: true, seed: 7, traced: traced,
		workDir: t.TempDir(), traceOut: traceOut, log: &log})
	if err != nil {
		t.Fatalf("%s traced=%v: %v\n%s", wl.name, traced, err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", wl.name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	return res
}

// TestQuickRunMatchesManifest runs every workload at smoke size, untraced
// once and traced twice, and holds the output to BENCHMARK.json: the same
// workloads, exactly the named metrics with the named units, and counts that
// repeat exactly for a seed.
func TestQuickRunMatchesManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads three times (≈ 9 s; minutes under -race)")
	}
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]manifestMetric{}, man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) is outside the manifest's character set", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %d", man.RunSeconds, defaultSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest names %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}

	check := func(res *Result, want []manifestMetric) {
		t.Helper()
		if len(res.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics emitted, manifest names %d", res.Workload, res.Traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s traced=%v: metric %s not emitted", res.Workload, res.Traced, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: %s has unit %q, manifest says %q", res.Workload, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: %s = %v", res.Workload, m.Name, got.Value)
			}
		}
	}
	for i, mw := range man.Workloads {
		wl := workloads[i]
		if wl.name != mw.Name {
			t.Fatalf("workload %d is %q in the manifest, %q in the benchmark", i, mw.Name, wl.name)
		}
		if len(mw.Why) == 0 || len(mw.Why) > 200 {
			t.Errorf("%s: why has %d characters", mw.Name, len(mw.Why))
		}
		timed := quickRun(t, wl, false, "")
		check(timed, man.EndToEnd)
		for _, m := range man.EndToEnd {
			if timed.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, m.Name, timed.Metrics[m.Name].Value)
			}
		}

		traceFile := filepath.Join(t.TempDir(), "trace.json")
		a := quickRun(t, wl, true, traceFile)
		b := quickRun(t, wl, true, "")
		check(a, man.PerLayer)
		// Work counts are a function of the seed alone. (numa.chunks_minted
		// and trace.events depend on which worker got which partition.)
		for _, name := range []string{"core.passes", "core.parts", "core.chunks", "core.nodes_executed", "core.cse_unifications",
			"core.rewrites", "safs.read_mb", "safs.write_mb", "safs.reads", "safs.writes", "safs.write_jobs",
			"safs.io_retries", "safs.checksum_failures"} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s does not repeat for one seed: %v then %v", wl.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.Metrics["core.passes"].Value < float64(len(wl.step)) {
			t.Errorf("%s: %v passes per round for %d steps", wl.name, a.Metrics["core.passes"].Value, len(wl.step))
		}
		if wl.em != (a.Metrics["safs.read_mb"].Value > 0) {
			t.Errorf("%s: safs.read_mb = %v", wl.name, a.Metrics["safs.read_mb"].Value)
		}
		if wl.name == "em_scan" && a.Metrics["safs.write_mb"].Value != 0 {
			t.Errorf("em_scan wrote %v MiB per round, must write none", a.Metrics["safs.write_mb"].Value)
		}
		checkChromeTrace(t, traceFile, len(wl.step))
	}
}

// checkChromeTrace parses the emitted trace and checks the harness spans:
// one run, its rounds, their steps, each naming its parent.
func checkChromeTrace(t *testing.T, path string, stepsPerRound int) {
	t.Helper()
	rs, err := readFileJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	parents := map[float64]float64{}
	enginePasses := 0
	for _, ev := range rs {
		if ev["ph"] != "X" {
			continue
		}
		if ev["pid"].(float64) != harnessPid {
			if ev["cat"] == "pass" {
				enginePasses++
			}
			continue
		}
		args := ev["args"].(map[string]any)
		kinds[ev["cat"].(string)]++
		parents[args["id"].(float64)] = args["parent"].(float64)
	}
	if kinds["run"] != 1 || kinds["round"] < 2 || kinds["step"] != kinds["round"]*stepsPerRound {
		t.Errorf("harness spans: %v, want 1 run, >= 2 rounds, %d steps per round", kinds, stepsPerRound)
	}
	for id, p := range parents {
		if _, ok := parents[p]; p != 0 && !ok {
			t.Errorf("span %v names parent %v, which is not in the trace", id, p)
		}
	}
	if enginePasses < stepsPerRound {
		t.Errorf("trace holds %d engine passes", enginePasses)
	}
}

func readFileJSON(path string) ([]map[string]any, error) {
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return f.TraceEvents, json.Unmarshal(b, &f)
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from CPython 3.11.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
		{[]float64{1.5, 2.5, 4, 8, 16, 32, 64}, [3]float64{2.5, 8, 32}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ev := func(track int32, k trace.Kind, start, end int64) trace.Event {
		return trace.Event{Pass: 1, Track: track, Kind: k, Start: start, End: end}
	}
	evs := []trace.Event{
		// Root lane: pass ⊃ admit, cache-lookup ⊃ rewrite. Out of order on
		// purpose; a second pass on the same track number must not nest.
		ev(0, trace.KindRewrite, 50, 70),
		ev(0, trace.KindPass, 0, 100),
		ev(0, trace.KindCacheLookup, 40, 90),
		ev(0, trace.KindAdmit, 10, 30),
		// Worker lane: super-task ⊃ read, compute back to back.
		ev(1, trace.KindSuperTask, 0, 50),
		ev(1, trace.KindRead, 0, 10),
		ev(1, trace.KindCompute, 10, 45),
		{Pass: 2, Track: 0, Kind: trace.KindPass, Start: 20, End: 60},
	}
	self := selfTimes(evs)
	for k, want := range map[trace.Kind]time.Duration{
		trace.KindPass: 30 + 40, trace.KindAdmit: 20, trace.KindCacheLookup: 30, trace.KindRewrite: 20,
		trace.KindSuperTask: 5, trace.KindRead: 10, trace.KindCompute: 35,
	} {
		if self[k] != want {
			t.Errorf("self time of %v = %d, want %d", k, self[k], want)
		}
	}
	if tot := totalTimes(evs); tot[trace.KindPass] != 140 || tot[trace.KindSuperTask] != 50 {
		t.Errorf("total times: %v", tot)
	}
}

func TestAttachPasses(t *testing.T) {
	steps := []hspan{{ID: 3, Start: 1000, End: 1100}, {ID: 4, Start: 1100, End: 1250}}
	evs := []trace.Event{
		{Pass: 1, Kind: trace.KindPass, Start: 10, End: 90},    // offset 1000 → [1010,1090] in step 3
		{Pass: 2, Kind: trace.KindPass, Start: 120, End: 200},  // step 4
		{Pass: 2, Kind: trace.KindCompute, Start: 10, End: 20}, // not a root span
		{Pass: 3, Kind: trace.KindPass, Start: 90, End: 130},   // straddles two steps: unattached
		{Pass: 4, Kind: trace.KindPass, Start: 300, End: 400},  // after the last step
	}
	got := attachPasses(evs, steps, 1000)
	if len(got) != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("attachPasses = %v, want map[1:3 2:4]", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := manifestMetric{Name: "round_p50_s", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.8, 1.3, 0.9, 1.2, 1.0, 0.7, 1.4, 1.1, 0.95, 1.05}
	for _, c := range []struct {
		name string
		a, b []float64
		m    manifestMetric
		want string
	}{
		{"same", base, base, lower, "unchanged"},
		{"within bound", base, scale(1.05), lower, "unchanged"},
		{"slower", base, scale(1.2), lower, "regressed"},
		{"faster", base, scale(0.8), lower, "improved"},
		{"noisy", base, noisy, lower, "unresolved"},
		{"noisy but every run better", noisy, scale(0.5), lower, "improved"},
		{"higher is better", base, scale(0.8), manifestMetric{Better: "higher", Bound: 0.1}, "regressed"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	h := Host{Cores: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", ArrayFS: "ext"}
	other := h
	other.ArrayFS = "tmpfs"
	if comparable(h, h) != nil || comparable(h, other) == nil {
		t.Error("comparable must accept equal fingerprints and refuse a different array filesystem")
	}
}
