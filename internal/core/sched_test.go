package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/safs"
)

// safsLeaf builds an nrow×ncol SAFS-backed leaf filled from seed.
func safsLeaf(t testing.TB, fs *safs.FS, name string, nrow int64, ncol, partRows int, seed int64) *Mat {
	t.Helper()
	st, err := matrix.NewSAFSStore(fs, name, nrow, ncol, partRows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]float64, partRows*ncol)
	for p := 0; p < st.NumParts(); p++ {
		rows := matrix.PartRowsOf(nrow, partRows, p)
		for i := range buf[:rows*ncol] {
			buf[i] = rng.NormFloat64()
		}
		if err := st.WritePart(p, buf[:rows*ncol]); err != nil {
			t.Fatal(err)
		}
	}
	return NewLeaf(st, matrix.F64)
}

// TestPrefetchCrossesRangeBoundary: a worker claims its next partition and
// issues that partition's prefetch before computing the current one, so
// every partition but the first is read ahead behind a computing one, and
// none is a cold read.
func TestPrefetchCrossesRangeBoundary(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const partRows, nparts = 256, 4
	leaf := safsLeaf(t, fs, "leaf", partRows*nparts, 3, partRows, 21)

	e, err := NewEngine(Config{Workers: 1, PartRows: partRows, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// Workers=1 ⇒ a strictly sequential event log.
	var events []string
	e.testSchedEvent = func(kind string, p int) { events = append(events, fmt.Sprintf("%s:%d", kind, p)) }
	out := Sapply(leaf, UnarySquare)
	if err := e.Materialize([]*Mat{out}, nil); err != nil {
		t.Fatal(err)
	}
	e.testSchedEvent = nil

	idx := func(ev string) int {
		for i, got := range events {
			if got == ev {
				return i
			}
		}
		t.Fatalf("event %q missing from %v", ev, events)
		return -1
	}
	for p := 0; p < nparts; p++ {
		if idx(fmt.Sprintf("prefetch:%d", p)) > idx(fmt.Sprintf("process:%d", p)) {
			t.Fatalf("partition %d processed before its prefetch: %v", p, events)
		}
	}
	// Every partition's successor is prefetched before the partition is
	// processed.
	for p := 0; p+1 < nparts; p++ {
		if idx(fmt.Sprintf("prefetch:%d", p+1)) > idx(fmt.Sprintf("process:%d", p)) {
			t.Fatalf("partition %d processed before partition %d's read-ahead: %v", p, p+1, events)
		}
	}
	// Accounting stays exact: every load was a prefetch hit.
	ms := e.LastMaterializeStats()
	if ms.PrefetchHits != nparts || ms.PrefetchMisses != 0 {
		t.Fatalf("prefetch accounting hits=%d misses=%d, want %d/0", ms.PrefetchHits, ms.PrefetchMisses, nparts)
	}
	if ms.PrefetchAbandoned != 0 {
		t.Fatalf("clean pass abandoned %d prefetches", ms.PrefetchAbandoned)
	}
}

// TestWorkerExitDrainsPrefetches: a worker that exits early (here: its own
// read failure on partition 0) must drain its in-flight prefetches and
// return the buffers — previously the pending map was abandoned with async
// reads still writing into pooled buffers.
func TestWorkerExitDrainsPrefetches(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const partRows = 256
	leaf := safsLeaf(t, fs, "leaf", partRows*8, 3, partRows, 22)

	e, err := NewEngine(Config{Workers: 1, PartRows: partRows, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// Every read fails past its retries, so the worker fails on partition
	// 0's load right after issuing partition 1's read-ahead.
	fs.InjectFaults(&safs.Faults{Seed: 1, ReadErrRate: 1})
	out := Sapply(leaf, UnarySquare)
	err = e.Materialize([]*Mat{out}, nil)
	if !errors.Is(err, safs.ErrInjected) {
		t.Fatalf("want injected read failure, got %v", err)
	}
	// The worker had prefetched partition 1 before failing on partition 0's
	// read; the exit path must have drained it (and only it).
	ms := e.LastMaterializeStats()
	if ms.PrefetchAbandoned != 1 {
		t.Fatalf("abandoned prefetches = %d, want 1", ms.PrefetchAbandoned)
	}
	// Engine and pools stay usable: the same pass runs clean once the faults
	// are cleared, and a clean pass abandons nothing.
	fs.InjectFaults(nil)
	out2 := Sapply(leaf, UnarySquare)
	got, err := e.ToDense(out2)
	if err != nil {
		t.Fatalf("engine unusable after drained failure: %v", err)
	}
	if ms2 := e.LastMaterializeStats(); ms2.PrefetchAbandoned != 0 {
		t.Fatalf("clean pass abandoned %d prefetches", ms2.PrefetchAbandoned)
	}
	want, err := e.ToDense(Sapply(leaf, UnarySquare))
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equalish(got, want, 0) {
		t.Fatal("post-failure pass produced wrong data")
	}
}

// TestSinkReductionDeterministic: materializing the same DAG repeatedly must
// produce bit-identical sink results even though workers race for
// partitions. Partials fold per partition and commit in partition order;
// before the ordered merge they folded per worker, so the floating-point
// summation order — and the low bits of every aggregate — depended on which
// worker won which partition.
func TestSinkReductionDeterministic(t *testing.T) {
	const (
		partRows = 64
		nparts   = 48
		ncol     = 3
	)
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	leaf := safsLeaf(t, fs, "det", int64(partRows*nparts), ncol, partRows, 99)
	e, err := NewEngine(Config{Workers: 8, PartRows: partRows, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	var wantCols []float64
	for it := 0; it < 20; it++ {
		sum := Agg(Sapply(leaf, UnarySquare), AggSum)
		cols := AggCol(leaf, AggSum)
		if err := e.Materialize(nil, []*Sink{sum, cols}); err != nil {
			t.Fatal(err)
		}
		gotSum := sum.Result().At(0, 0)
		gotCols := make([]float64, ncol)
		for j := range gotCols {
			gotCols[j] = cols.Result().At(0, j)
		}
		if it == 0 {
			wantSum, wantCols = gotSum, gotCols
			continue
		}
		if gotSum != wantSum {
			t.Fatalf("pass %d: sum %.17g != first pass %.17g", it, gotSum, wantSum)
		}
		for j := range gotCols {
			if gotCols[j] != wantCols[j] {
				t.Fatalf("pass %d: colSum[%d] %.17g != first pass %.17g", it, j, gotCols[j], wantCols[j])
			}
		}
	}
}
