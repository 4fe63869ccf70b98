package benchmark

import (
	"strings"
	"testing"

	flashr "repro"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig(t *testing.T) Config {
	return Config{
		N: 6000, Session: flashr.Options{Workers: 2}, Drives: 2, Iters: 1,
		SSDRoot: t.TempDir(),
	}
}

func TestFig7aSmoke(t *testing.T) {
	rows, err := Fig7a(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// 6 algorithms; correlation and gmm lack the H2O system (footnote 2).
	systems := map[string]map[string]bool{}
	for _, r := range rows {
		if systems[r.Algorithm] == nil {
			systems[r.Algorithm] = map[string]bool{}
		}
		systems[r.Algorithm][r.System] = true
		if r.Seconds <= 0 {
			t.Fatalf("%s/%s has no measurement", r.Algorithm, r.System)
		}
	}
	if len(systems) != 6 {
		t.Fatalf("expected 6 algorithms, got %d", len(systems))
	}
	if systems["correlation"]["H2O-like"] || systems["gmm"]["H2O-like"] {
		t.Fatal("H2O must not report correlation/GMM (paper footnote 2)")
	}
	if !systems["pca"]["H2O-like"] || !systems["kmeans"]["MLlib-like"] {
		t.Fatal("missing baseline systems")
	}
	for _, r := range rows {
		if r.System == "FlashR-IM" && r.Normalized != 1 {
			t.Fatalf("FlashR-IM not the normalization reference: %v", r)
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	rows, err := Fig9(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var pSweep, kSweep int
	for _, r := range rows {
		if r.Normalized <= 0 {
			t.Fatalf("non-positive EM/IM ratio: %v", r)
		}
		if r.Algorithm == "kmeans" {
			kSweep++
		} else {
			pSweep++
		}
	}
	if pSweep != 8 || kSweep != 4 {
		t.Fatalf("sweep sizes p=%d k=%d", pSweep, kSweep)
	}
}

func TestFig10Smoke(t *testing.T) {
	rows, err := Fig10(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]bool{}
	for _, r := range rows {
		if r.System == "base" {
			if r.Normalized != 1 {
				t.Fatalf("base speedup must be 1: %v", r)
			}
			base[r.Algorithm] = true
		}
	}
	if len(base) != 6 {
		t.Fatalf("fig10 covers %d algorithms, want 6", len(base))
	}
}

func TestTable6Smoke(t *testing.T) {
	rows, err := Table6(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !strings.Contains(r.Extra, "peakheap=") {
			t.Fatalf("missing memory accounting: %v", r)
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	rows, err := Table4(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !strings.Contains(r.Extra, "passes=") {
			t.Fatalf("missing pass accounting: %v", r)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nonsense", tinyConfig(t)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range Experiments() {
		switch e {
		case "fig7a", "fig9": // covered above; skip re-running the slow ones
		}
	}
	rows, err := Run("table4", tinyConfig(t))
	if err != nil || len(rows) == 0 {
		t.Fatalf("dispatch: %v", err)
	}
	out := Format(rows)
	if !strings.Contains(out, "table4") {
		t.Fatal("format output missing experiment id")
	}
}

func TestFig7bSmoke(t *testing.T) {
	rows, err := Fig7b(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var clusterRows int
	for _, r := range rows {
		if strings.HasSuffix(r.System, "-cluster") {
			clusterRows++
			if !strings.Contains(r.Extra, "rounds=") {
				t.Fatalf("cluster row missing cost-model detail: %v", r)
			}
		}
	}
	if clusterRows == 0 {
		t.Fatal("no simulated cluster measurements")
	}
}

func TestFig8Smoke(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.N = 20000 // fig8 divides by 10 with a floor of 2048
	rows, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]int{}
	for _, r := range rows {
		algos[r.Algorithm]++
	}
	for _, want := range []string{"crossprod", "mvrnorm", "lda"} {
		if algos[want] != 3 {
			t.Fatalf("fig8 %s has %d systems, want 3", want, algos[want])
		}
	}
}
