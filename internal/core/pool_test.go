package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dense"
	"repro/internal/matrix"
	"repro/internal/numa"
	"repro/internal/safs"
)

// checkClean asserts that nothing a pass took is still held once it has
// returned: no buffer checked out of the engine pool, no pass admitted or
// queued in the arbiter and no memory reserved for one, and no goroutine
// beyond base (polled, since exiting goroutines take a moment to go).
func checkClean(t *testing.T, e *Engine, base int) {
	t.Helper()
	e.pool.mu.Lock()
	out := e.pool.out
	e.pool.mu.Unlock()
	if out != 0 {
		t.Errorf("%d buffers still checked out of the engine pool", out)
	}
	e.arb.mu.Lock()
	inFlight, queued := e.arb.inFlight, len(e.arb.order)
	e.arb.mu.Unlock()
	if inFlight != 0 || queued != 0 {
		t.Errorf("arbiter holds %d admitted and %d queued passes", inFlight, queued)
	}
	if r := e.cfg.Topo.MemReserved(); r != 0 {
		t.Errorf("%d bytes still reserved for passes", r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines running, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// panicStore is an in-memory leaf whose read of one partition panics. It is
// not a *matrix.MemStore, so workers read it into pool buffers.
type panicStore struct {
	matrix.Store
	part int
}

func (s *panicStore) ReadPart(i int, dst []float64) error {
	if i == s.part {
		panic("injected read panic")
	}
	return s.Store.ReadPart(i, dst)
}

// poolRig is an EM engine over a SAFS leaf, whose one program exercises
// every kind of pooled buffer: prefetch targets, synchronous reads (of a
// second, in-memory leaf), chunk slots and tall-output partitions.
type poolRig struct {
	fs   *safs.FS
	e    *Engine
	x, y *Mat
	ys   *panicStore // y's store
}

func newPoolRig(t *testing.T) *poolRig {
	t.Helper()
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	const partRows, nparts, ncol = 256, 16, 3
	const nrow = partRows*nparts - 17 // a ragged last partition
	x := safsLeaf(t, fs, "x", nrow, ncol, partRows, 5)
	ys, err := matrix.NewMemStore(nil, nrow, ncol, partRows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	buf := make([]float64, partRows*ncol)
	for p := 0; p < ys.NumParts(); p++ {
		n := matrix.PartRowsOf(nrow, partRows, p) * ncol
		for i := range buf[:n] {
			buf[i] = rng.NormFloat64()
		}
		if err := ys.WritePart(p, buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngine(Config{Workers: 2, PartRows: partRows, FS: fs, EM: true,
		Topo: numa.NewTopology(2, 1<<15), DisableCSE: true})
	if err != nil {
		t.Fatal(err)
	}
	ps := &panicStore{Store: ys, part: -1}
	return &poolRig{fs: fs, e: e, x: x, y: NewLeaf(ps, matrix.F64), ys: ps}
}

// run materializes the rig's program: a tall x*y+x² and the column sums of
// x+y, returning both.
func (r *poolRig) run(ctx context.Context) (*dense.Dense, []float64, error) {
	tall := Mapply(Mapply(r.x, r.y, BinMul), Sapply(r.x, UnarySquare), BinAdd)
	sums := AggCol(Mapply(r.x, r.y, BinAdd), AggSum)
	if err := r.e.MaterializeCtx(ctx, []*Mat{tall}, []*Sink{sums}); err != nil {
		return nil, nil, err
	}
	d, err := r.e.ToDense(tall)
	if err != nil {
		return nil, nil, err
	}
	tall.Free()
	return d, sums.Result().Data, nil
}

// TestPoolCleanAfterPasses: after a clean pass and after every way a pass
// can fail — cancelled mid-way, a read error, a write error, a worker panic,
// a sink fold error mid-chunk — every pooled buffer is back, no reservation
// is left, no goroutine lingers, and the next pass computes the same bits
// (a buffer handed to two users would corrupt it).
func TestPoolCleanAfterPasses(t *testing.T) {
	r := newPoolRig(t)
	base := runtime.NumGoroutine()
	wantTall, wantSums, err := r.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, r.e, base)

	fail := []struct {
		name  string
		setup func(ctx context.Context, cancel func()) (undo func())
		want  func(error) bool
	}{
		{"cancelled", func(_ context.Context, cancel func()) func() {
			// Slow reads keep the rest of the pass running well past the
			// cancel, so the cancellation lands mid-pass.
			r.fs.InjectFaults(&safs.Faults{Latency: 2 * time.Millisecond})
			var once sync.Once
			r.e.testSchedEvent = func(kind string, p int) {
				if kind == "process" && p >= 3 {
					once.Do(cancel)
				}
			}
			return func() { r.fs.InjectFaults(nil); r.e.testSchedEvent = nil }
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"read_error", func(context.Context, func()) func() {
			r.fs.InjectFaults(&safs.Faults{Seed: 1, ReadErrRate: 1})
			return func() { r.fs.InjectFaults(nil) }
		}, func(err error) bool { return errors.Is(err, safs.ErrInjected) }},
		{"write_error", func(context.Context, func()) func() {
			r.e.testStoreWrap = func(st matrix.Store) matrix.Store {
				return &failingWriteStore{Store: st, failPart: 3}
			}
			return func() { r.e.testStoreWrap = nil }
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "injected write failure") }},
		{"worker_panic", func(context.Context, func()) func() {
			r.ys.part = 5
			return func() { r.ys.part = -1 }
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "injected read panic") }},
	}
	for _, f := range fail {
		t.Run(f.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			undo := f.setup(ctx, cancel)
			_, _, err := r.run(ctx)
			undo()
			if !f.want(err) {
				t.Fatalf("pass error %v", err)
			}
			checkClean(t, r.e, base)
			tall, sums, err := r.run(context.Background())
			if err != nil {
				t.Fatalf("engine unusable after the failed pass: %v", err)
			}
			sameBits(t, "tall after the failed pass", tall.Data, wantTall.Data)
			sameBits(t, "sums after the failed pass", sums, wantSums)
			checkClean(t, r.e, base)
		})
	}

	t.Run("fold_error", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// A label out of range fails the groupby.row fold after the chunk's
		// slots and the partition's output buffers were taken.
		labels := MapplyScalar(Sapply(Cols(r.x, []int{0}), UnaryAbs), 100, BinAdd, false)
		tall := Sapply(r.x, UnarySquare)
		g := GroupByRow(r.y, labels, 2, AggSum)
		err := r.e.Materialize([]*Mat{tall}, []*Sink{g})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("pass error %v, want a label out of range", err)
		}
		checkClean(t, r.e, base)
	})
}

// TestPoolDoublePutPanics: returning a buffer the pool already holds, or
// one it never handed out, fails loudly instead of letting two passes share
// it.
func TestPoolDoublePutPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var p bufPool
	a, b := p.get(64), p.get(64)
	p.put(a)
	mustPanic("second put of a held buffer", func() { p.put(a) })
	p.put(b)
	mustPanic("put into an idle class", func() { p.put(b) })
	mustPanic("put of a foreign buffer", func() { p.put(make([]float64, 32)) })
	if p.out != 0 {
		t.Fatalf("%d checked out after balanced get/put", p.out)
	}
}

// TestPoolRetention: a repeated pass reuses the pool's buffers and makes no
// new ones, and a class no pass has used for two busy periods is dropped.
func TestPoolRetention(t *testing.T) {
	var p bufPool
	idle := func() map[*float64]bool {
		s := make(map[*float64]bool)
		for _, c := range p.classes {
			for _, b := range c.free {
				s[&b[0]] = true
			}
		}
		return s
	}
	busy := func(n, k int) {
		bs := make([][]float64, k)
		for i := range bs {
			bs[i] = p.get(n)
		}
		for _, b := range bs {
			p.put(b)
		}
	}
	busy(100, 3)
	busy(8, 2)
	first := idle()
	if len(first) != 5 {
		t.Fatalf("%d idle buffers after two busy periods, want 5", len(first))
	}
	busy(100, 3)
	for b := range idle() {
		if !first[b] {
			t.Fatal("a repeated busy period allocated a new buffer")
		}
	}
	busy(100, 1)
	if _, ok := p.classes[8]; ok {
		t.Fatal("a class unused for two busy periods was kept")
	}
	if c := p.classes[100]; len(c.free) != 3 {
		t.Fatalf("class kept %d buffers, want the previous period's 3", len(c.free))
	}
	busy(100, 1)
	if c := p.classes[100]; len(c.free) != 1 {
		t.Fatalf("class kept %d buffers after two periods needing 1", len(c.free))
	}
}

// TestConcurrentPassesMatchSerial: passes running at once on one engine share
// its pool and still compute exactly what they compute one at a time.
func TestConcurrentPassesMatchSerial(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const partRows = 128
	x := safsLeaf(t, fs, "cx", partRows*12+5, 4, partRows, 31)
	z := safsLeaf(t, fs, "cz", partRows*12+5, 4, partRows, 32)
	e, err := NewEngine(Config{Workers: 2, PartRows: partRows, FS: fs, EM: true,
		Topo: numa.NewTopology(2, 1<<15), DisableCSE: true, MaxConcurrentPasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	// Two programs over partition buffers of the same class, with a tall
	// output each, so their buffers cross between passes through the pool.
	passes := []func() ([]float64, error){
		func() ([]float64, error) {
			tall := Sapply(Mapply(x, z, BinSub), UnarySquare)
			s := AggCol(Mapply(x, z, BinMul), AggSum)
			if err := e.Materialize([]*Mat{tall}, []*Sink{s}); err != nil {
				return nil, err
			}
			d, err := e.ToDense(tall)
			tall.Free()
			if err != nil {
				return nil, err
			}
			return append(d.Data, s.Result().Data...), nil
		},
		func() ([]float64, error) {
			tall := MapplyScalar(z, 0.5, BinMul, false)
			s := Agg(Sapply(x, UnaryAbs), AggSum)
			if err := e.Materialize([]*Mat{tall}, []*Sink{s}); err != nil {
				return nil, err
			}
			d, err := e.ToDense(tall)
			tall.Free()
			if err != nil {
				return nil, err
			}
			return append(d.Data, s.Result().Data...), nil
		},
	}
	want := make([][]float64, len(passes))
	for i, run := range passes {
		if want[i], err = run(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		got := make([][]float64, 2*len(passes))
		errs := make([]error, len(got))
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = passes[i%len(passes)]()
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("round %d pass %d: %v", round, i, errs[i])
			}
			sameBits(t, fmt.Sprintf("round %d pass %d", round, i), got[i], want[i%len(passes)])
		}
	}
	checkClean(t, e, base)
}
