package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/numa"
	"repro/internal/safs"
)

// failingWriteStore wraps a Store and fails writes on one partition — the
// injection seam for proving write failures surface through the async
// write-back path.
type failingWriteStore struct {
	matrix.Store
	failPart int
}

func (f *failingWriteStore) WritePart(i int, src []float64) error {
	if i == f.failPart {
		return fmt.Errorf("injected write failure on partition %d", i)
	}
	return f.Store.WritePart(i, src)
}

// TestWriteErrorPropagates: a store write failure must fail Materialize with
// the injected error through the write-behind queue and must not publish the
// target.
func TestWriteErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ad := dense.New(2000, 3)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	e, err := NewEngine(Config{Workers: 3, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	e.testStoreWrap = func(st matrix.Store) matrix.Store {
		return &failingWriteStore{Store: st, failPart: 3}
	}
	out := Sapply(a, UnarySquare)
	err = e.Materialize([]*Mat{out}, nil)
	if err == nil {
		t.Fatal("materialization with failing writes succeeded")
	}
	if !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("error %v does not carry the injected failure", err)
	}
	if out.Materialized() {
		t.Fatal("target published after failed pass")
	}
	// The engine must remain usable after the failed pass.
	e.testStoreWrap = nil
	if _, err := e.ToDense(Sapply(a, UnaryAbs)); err != nil {
		t.Fatalf("engine unusable after write failure: %v", err)
	}
}

// TestCancelledMaterializeDrains: cancelling a materialization mid-pass must
// return promptly with the context error, drain in-flight writes, and leave
// the NUMA chunk pools consistent (every pooled chunk back after frees).
func TestCancelledMaterializeDrains(t *testing.T) {
	topo := numa.NewTopology(2, 1<<15)
	// Throttled array so the pass is slow enough to cancel mid-flight.
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const nrow, ncol, partRows = 2048, 8, 256
	st, err := matrix.NewSAFSStore(fs, "leaf", nrow, ncol, partRows)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, partRows*ncol)
	rng := rand.New(rand.NewSource(12))
	for p := 0; p < st.NumParts(); p++ {
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		if err := st.WritePart(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	leaf := NewLeaf(st, matrix.F64)

	e, err := NewEngine(Config{Workers: 2, PartRows: partRows, Topo: topo, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	out := Sapply(leaf, UnarySquare) // tall output → pooled MemStore partitions
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.MaterializeCtx(ctx, []*Mat{out}, nil) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err = <-done:
	case <-timeoutC():
		t.Fatal("cancelled materialization did not return")
	}
	if !errors.Is(err, context.Canceled) {
		// A worker that abandons in-flight prefetches trips the pass's
		// pool-consistency invariant and surfaces an internal error here
		// instead of the bare context error.
		t.Fatalf("MaterializeCtx err = %v, want context.Canceled", err)
	}
	if out.Materialized() {
		t.Fatal("cancelled target was published")
	}
	// The engine and pools must be reusable: run the same pass to completion.
	out2 := Sapply(leaf, UnarySquare)
	if _, err := e.ToDense(out2); err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
	if ms := e.LastMaterializeStats(); ms.PrefetchAbandoned != 0 {
		t.Fatalf("clean pass after cancellation abandoned %d prefetches", ms.PrefetchAbandoned)
	}
	out2.Free()
	leaf.Free()
	// The result cache retains a reference on out2's store past Free; drop
	// it so the pool-balance check below sees every buffer returned.
	e.FlushResultCache()
	idle, allocated := topo.PoolStats()
	for n := range idle {
		if idle[n] != allocated[n] {
			t.Fatalf("node %d pool inconsistent after cancel: idle=%d allocated=%d",
				n, idle[n], allocated[n])
		}
	}
}

// TestMaterializeStatsRecorded checks the observability record: an EM pass
// reports its I/O volume and write-queue activity.
func TestMaterializeStatsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ad := dense.New(4096, 4)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
	}
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	e, err := NewEngine(Config{Workers: 2, PartRows: 256, FS: fs, EM: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	out := Sapply(a, UnaryExp)
	if err := e.Materialize([]*Mat{out}, nil); err != nil {
		t.Fatal(err)
	}
	ms := e.LastMaterializeStats()
	wantBytes := int64(4096 * 4 * 8)
	if ms.Parts != 16 || ms.Passes != 1 {
		t.Fatalf("parts=%d passes=%d, want 16/1", ms.Parts, ms.Passes)
	}
	if ms.BytesRead != wantBytes || ms.BytesWritten != wantBytes {
		t.Fatalf("read=%d written=%d, want %d", ms.BytesRead, ms.BytesWritten, wantBytes)
	}
	if ms.PrefetchHits+ms.PrefetchMisses != 16 {
		t.Fatalf("prefetch hits=%d misses=%d, want 16 loads", ms.PrefetchHits, ms.PrefetchMisses)
	}
	if ms.WriteJobs != 16 {
		t.Fatalf("write jobs = %d, want 16", ms.WriteJobs)
	}
	total := e.TotalMaterializeStats()
	if total.BytesWritten < ms.BytesWritten {
		t.Fatal("total stats did not accumulate the pass")
	}
	if s := ms.String(); !strings.Contains(s, "wstall=") || !strings.Contains(s, "parts=16") {
		t.Fatalf("stats string %q missing fields", s)
	}
}

// TestWriteBehindBitIdentical: for every fusion level, results written
// through the write-behind pipeline must be bit-identical to plain loops over
// the dense inputs. The cumulative sum is order-sensitive, so this also
// catches partition writes landing in the wrong slot.
func TestWriteBehindBitIdentical(t *testing.T) {
	const nrow, ncol = 3000, 3
	rng := rand.New(rand.NewSource(17))
	ad := dense.New(nrow, ncol)
	bd := dense.New(nrow, ncol)
	for i := range ad.Data {
		ad.Data[i] = rng.NormFloat64()
		bd.Data[i] = rng.NormFloat64()
	}
	sqrtAbs := dense.New(nrow, ncol)
	for i, x := range ad.Data {
		sqrtAbs.Data[i] = math.Sqrt(math.Abs(x))
	}
	cumSum := dense.New(nrow, ncol)
	for j := 0; j < ncol; j++ {
		var run float64
		for i := 0; i < nrow; i++ {
			run += ad.At(i, j) + bd.At(i, j)
			cumSum.Set(i, j, run)
		}
	}
	exprs := []struct {
		name  string
		build func(a, b *Mat) *Mat
		want  *dense.Dense
	}{
		{"sapply-chain", func(a, _ *Mat) *Mat { return Sapply(Sapply(a, UnaryAbs), UnarySqrt) }, sqrtAbs},
		{"cumcol-of-mapply", func(a, b *Mat) *Mat { return CumCol(Mapply(a, b, BinAdd), AggSum) }, cumSum},
	}
	for _, ex := range exprs {
		for _, fuse := range []FuseLevel{FuseCache, FuseMem, FuseNone} {
			fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(Config{Workers: 3, Fuse: fuse, PartRows: 256, FS: fs, EM: true})
			if err != nil {
				t.Fatal(err)
			}
			a, err := e.FromDense(ad)
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.FromDense(bd)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.ToDense(ex.build(a, b))
			if err != nil {
				t.Fatalf("%s fuse=%v: %v", ex.name, fuse, err)
			}
			if !dense.Equalish(got, ex.want, 0) {
				t.Fatalf("%s fuse=%v differs from the dense reference", ex.name, fuse)
			}
			fs.Close()
		}
	}
}
