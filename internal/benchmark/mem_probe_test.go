package benchmark

import (
	"runtime"
	"testing"

	flashr "repro"
	"repro/internal/workload"
	"repro/ml"
)

// TestMemProbe diagnoses Table 6's peak-heap measurement at modest scale.
func TestMemProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	cfg := Config{N: 600_000, Session: flashr.Options{Workers: 1}, Drives: 2, SSDRoot: t.TempDir()}.Defaults()
	ss, err := cfg.openSessions(flashr.FuseCache)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.close(cfg)
	x, y, err := workload.Criteo(ss.em, cfg.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer freeAll(x, y)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t.Logf("baseline live heap: %d MB", before.HeapAlloc>>20)
	peak := newPeakTracker()
	if _, err := ml.Correlation(x); err != nil {
		t.Fatal(err)
	}
	peakMB := peak.stop()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.Logf("peak during correlation: %.0f MB, live after GC: %d MB, totalAlloc delta: %d MB",
		peakMB, after.HeapAlloc>>20, (after.TotalAlloc-before.TotalAlloc)>>20)
}
