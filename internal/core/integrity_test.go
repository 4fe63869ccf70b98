package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/safs"
)

// integrityRig is one EM pipeline under test: a SAFS array with a small
// stripe, an engine, and a SAFS-resident leaf.
type integrityRig struct {
	fs   *safs.FS
	e    *Engine
	leaf *Mat
}

const (
	intPartRows = 256
	intNParts   = 64
	intNCol     = 2
)

func newIntegrityRig(t *testing.T, mbps float64) *integrityRig {
	t.Helper()
	fs, err := safs.Open(safs.Config{
		Drives: safs.DriveDirs(t.TempDir(), 3), StripeBytes: 8192,
		ReadMBps: mbps, WriteMBps: mbps,
		MaxRetries: 8, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	e, err := NewEngine(Config{Workers: 3, PartRows: intPartRows, FS: fs, EM: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := matrix.NewSAFSStore(fs, "leaf", intPartRows*intNParts, intNCol, intPartRows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	buf := make([]float64, intPartRows*intNCol)
	for p := 0; p < st.NumParts(); p++ {
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		if err := st.WritePart(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	return &integrityRig{fs: fs, e: e, leaf: NewLeaf(st, matrix.F64)}
}

func (r *integrityRig) pipeline() *Mat {
	return Mapply(Sapply(r.leaf, UnarySquare), r.leaf, BinAdd)
}

// TestFaultInjectionMatrix runs {transient errors, bit-flip corruption,
// permanent on-media corruption, dropped writes} through a full EM
// materialization whose outputs go through the asynchronous write-behind
// queue (the "async" in each subtest name): recovered runs must be
// bit-identical to a fault-free run with nonzero retry/verify counters,
// unrecoverable ones must name the drive, file, and stripe, and the clean
// path must report all-zero fault counters.
func TestFaultInjectionMatrix(t *testing.T) {
	// Fault-free reference, also asserting the clean-path counters.
	ref := newIntegrityRig(t, 0)
	want, err := ref.e.ToDense(ref.pipeline())
	if err != nil {
		t.Fatal(err)
	}
	ms := ref.e.TotalMaterializeStats()
	if ms.ChecksumFailures != 0 || ms.IORetries != 0 || ms.RecoveredReads != 0 || ms.RecoveredWrites != 0 {
		t.Fatalf("clean path reported faults: %+v", ms)
	}
	if ms.VerifyTime <= 0 {
		t.Fatal("verification enabled but no verify time recorded")
	}
	if ms.PrefetchAbandoned != 0 {
		t.Fatalf("clean path abandoned %d prefetches", ms.PrefetchAbandoned)
	}

	t.Run("transient/async", func(t *testing.T) {
		rig := newIntegrityRig(t, 0)
		rig.fs.InjectFaults(&safs.Faults{Seed: 7, ReadErrRate: 0.05, WriteErrRate: 0.05})
		got, err := rig.e.ToDense(rig.pipeline())
		if err != nil {
			t.Fatalf("transient faults not recovered: %v", err)
		}
		if !dense.Equalish(got, want, 0) {
			t.Fatal("recovered run not bit-identical to fault-free run")
		}
		ms := rig.e.TotalMaterializeStats()
		if ms.IORetries == 0 {
			t.Fatal("no retries recorded under 5% transient error rate")
		}
		if ms.RecoveredReads+ms.RecoveredWrites == 0 {
			t.Fatal("no recoveries recorded under injection")
		}
	})

	t.Run("flipbit/async", func(t *testing.T) {
		rig := newIntegrityRig(t, 0)
		rig.fs.InjectFaults(&safs.Faults{Seed: 8, FlipBitRate: 0.2})
		got, err := rig.e.ToDense(rig.pipeline())
		if err != nil {
			t.Fatalf("bit flips not recovered: %v", err)
		}
		if !dense.Equalish(got, want, 0) {
			t.Fatal("flip-bit run not bit-identical to fault-free run")
		}
		ms := rig.e.TotalMaterializeStats()
		if ms.ChecksumFailures == 0 {
			t.Fatal("no checksum failures recorded under 20% flip rate")
		}
		if ms.RecoveredReads == 0 {
			t.Fatal("no recovered reads recorded under flip injection")
		}
	})

	t.Run("permanent/async", func(t *testing.T) {
		rig := newIntegrityRig(t, 0)
		// Flip a bit directly on media: retries cannot heal this.
		lf := rig.leaf.Store().(*matrix.SAFSStore).File()
		const badStripe = 3
		if err := lf.Corrupt(badStripe, 17); err != nil {
			t.Fatal(err)
		}
		err := rig.e.Materialize([]*Mat{rig.pipeline()}, nil)
		var se *safs.StripeError
		if !errors.As(err, &se) {
			t.Fatalf("want StripeError from on-media corruption, got %v", err)
		}
		if se.File != "leaf" || se.Stripe != badStripe || se.Op != "read" {
			t.Fatalf("StripeError misidentifies the failure: %+v", se)
		}
		var ce *safs.ChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("want wrapped ChecksumError, got %v", err)
		}
		ms := rig.e.LastMaterializeStats()
		if ms.ChecksumFailures == 0 {
			t.Fatal("permanent corruption not counted")
		}
	})

	t.Run("dropwrite/async", func(t *testing.T) {
		rig := newIntegrityRig(t, 0)
		out := rig.pipeline()
		rig.fs.InjectFaults(&safs.Faults{Seed: 9, DropWriteRate: 1})
		// Torn writes look successful, so the pass itself completes...
		if err := rig.e.Materialize([]*Mat{out}, nil); err != nil {
			t.Fatalf("dropped writes must ack like a real torn write, got %v", err)
		}
		rig.fs.InjectFaults(nil)
		// ...and the corruption surfaces on the next verified read.
		_, err := rig.e.ToDense(out)
		var se *safs.StripeError
		if !errors.As(err, &se) {
			t.Fatalf("torn write not detected on read-back, got %v", err)
		}
	})
}

// TestFaultInjectionCancelled: cancelling a pass while transient faults and
// retries are in flight must still return context.Canceled promptly, drain
// cleanly, and leave the engine usable.
func TestFaultInjectionCancelled(t *testing.T) {
	rig := newIntegrityRig(t, 4) // throttled so the pass outlives the cancel
	rig.fs.InjectFaults(&safs.Faults{Seed: 10, ReadErrRate: 0.05, FlipBitRate: 0.05, Latency: 200 * time.Microsecond})
	out := rig.pipeline()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rig.e.MaterializeCtx(ctx, []*Mat{out}, nil) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("MaterializeCtx err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled materialization under injection did not return")
	}
	if out.Materialized() {
		t.Fatal("cancelled target was published")
	}
	// The engine recovers: with faults cleared the same pipeline completes
	// and abandons nothing.
	rig.fs.InjectFaults(nil)
	if _, err := rig.e.ToDense(rig.pipeline()); err != nil {
		t.Fatalf("engine unusable after cancelled injected pass: %v", err)
	}
	if ms := rig.e.LastMaterializeStats(); ms.PrefetchAbandoned != 0 {
		t.Fatalf("clean pass after cancellation abandoned %d prefetches", ms.PrefetchAbandoned)
	}
}
