package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// verdict judges one end-to-end metric of one workload: a is the parent's
// runs, b the change's. Spread is the distance between the first and third
// quartile as a share of the median — the same figure the driver computes.
func verdict(a, b []float64, m manifestMetric) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	if ratio(a3-a1, am) > m.Bound || ratio(b3-b1, bm) > m.Bound {
		// Too noisy to call, unless every run of b beats every run of a.
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "improved"
	}
	worse := ratio(bm-am, am)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case better(bm, am) && math.Abs(bm-am) > a3-a1:
		return "improved"
	}
	return "unchanged"
}

// comparable refuses results taken on different hosts: the fingerprint
// fields that decide speed must agree.
func comparable(a, b Host) error {
	if a.Cores != b.Cores || a.GOMAXPROCS != b.GOMAXPROCS || a.GoVersion != b.GoVersion || a.ArrayFS != b.ArrayFS {
		return fmt.Errorf("host fingerprints differ: %d cores / GOMAXPROCS %d / %s / array on %s against %d / %d / %s / %s",
			a.Cores, a.GOMAXPROCS, a.GoVersion, a.ArrayFS, b.Cores, b.GOMAXPROCS, b.GoVersion, b.ArrayFS)
	}
	return nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare takes its bounds from BENCHMARK.json in the current directory:", err)
		return 1
	}
	ra, err := readResults(pathA)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s holds no results", pathA)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rb, err := readResults(pathB)
	if err == nil && len(rb) == 0 {
		err = fmt.Errorf("%s holds no results", pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := comparable(ra[0].Host, rb[0].Host); err != nil {
		fmt.Fprintln(stderr, "bench: refusing to compare:", err)
		return 1
	}
	collect := func(rs []*Result, wl, metric string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Traced && r.Quick == ra[0].Quick {
				v = append(v, m.Value)
			}
		}
		return v
	}
	regressed := false
	fmt.Fprintf(stdout, "%-14s %-12s %5s %12s %12s %8s  %s\n", "workload", "metric", "runs", "a median", "b median", "change", "verdict")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			a, b := collect(ra, wl.Name, m.Name), collect(rb, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stdout, "%-14s %-12s %5s %12s %12s %8s  %s\n", wl.Name, m.Name, fmt.Sprintf("%d/%d", len(a), len(b)), "-", "-", "-", "missing")
				continue
			}
			v := verdict(a, b, m)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(stdout, "%-14s %-12s %5s %12.5g %12.5g %+7.1f%%  %s (bound %.0f%%)\n", wl.Name, m.Name,
				fmt.Sprintf("%d/%d", len(a), len(b)), median(a), median(b), 100*ratio(median(b)-median(a), median(a)), v, 100*m.Bound)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
