package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/matrix"
)

// countingTransport counts non-recovery exec requests passing through — the
// probe that pins which workers re-execute after a fault.
type countingTransport struct {
	inner Transport
	execs atomic.Int64
}

func (c *countingTransport) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	if op == opExec && !isRecoveryCtx(ctx) {
		c.execs.Add(1)
	}
	return c.inner.Call(ctx, op, body)
}

func (c *countingTransport) Close() error      { return c.inner.Close() }
func (c *countingTransport) Unwrap() Transport { return c.inner }

// dropOnce fails the first exec it sees with a transient fault, delivering
// nothing.
type dropOnce struct {
	inner Transport
	armed atomic.Bool
}

func (d *dropOnce) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	if op == opExec && d.armed.CompareAndSwap(true, false) {
		return nil, &FaultError{Kind: "drop", Op: op}
	}
	return d.inner.Call(ctx, op, body)
}

func (d *dropOnce) Close() error      { return d.inner.Close() }
func (d *dropOnce) Unwrap() Transport { return d.inner }

// failExecTransport rejects every exec with a permanent (non-transient)
// remote error; other ops pass through.
type failExecTransport struct {
	inner Transport
}

func (f *failExecTransport) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	if op == opExec {
		return nil, &WireError{Op: op, Msg: "injected permanent failure"}
	}
	return f.inner.Call(ctx, op, body)
}

func (f *failExecTransport) Close() error      { return f.inner.Close() }
func (f *failExecTransport) Unwrap() Transport { return f.inner }

// TestWorkerFenceRejectsStaleState pins the fencing contract at the Handle
// level: wrong boot and wrong epoch are typed EpochError rejections, a hello
// with a new epoch wipes the previous session's residents, and a hello with
// the same epoch keeps them.
func TestWorkerFenceRejectsStaleState(t *testing.T) {
	w, err := NewWorker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	hello := func(epoch uint64) helloResp {
		t.Helper()
		rb, herr := w.Handle(ctx, opHello, encodeHelloReq(helloReq{Version: protocolVersion, PartRows: testPartRows, Epoch: epoch}))
		if herr != nil {
			t.Fatal(herr)
		}
		h, derr := decodeHelloResp(rb)
		if derr != nil {
			t.Fatal(derr)
		}
		return h
	}
	h := hello(5)
	if h.Boot != w.Boot() || h.Boot == 0 {
		t.Fatalf("hello boot %x, want worker boot %x (nonzero)", h.Boot, w.Boot())
	}
	rows := int64(testPartRows)
	data := make([]float64, rows*int64(testNCol))
	push := encodePartReq(partReq{Handle: "m1", NRow: rows, NCol: testNCol, DT: uint8(matrix.F64), Part: 0, Data: data})
	if _, err := w.Handle(ctx, opPushPart, fenceBody(5, w.Boot(), push)); err != nil {
		t.Fatal(err)
	}
	var ee *EpochError
	if _, err := w.Handle(ctx, opPushPart, fenceBody(5, w.Boot()+1, push)); !errors.As(err, &ee) {
		t.Fatalf("stale boot: got %v, want EpochError", err)
	}
	if _, err := w.Handle(ctx, opPushPart, fenceBody(6, w.Boot(), push)); !errors.As(err, &ee) {
		t.Fatalf("stale epoch: got %v, want EpochError", err)
	}
	if got := w.FenceRejects(); got != 2 {
		t.Fatalf("fence rejects = %d, want 2", got)
	}
	if h := hello(5); h.Kept != 1 {
		t.Fatalf("same-epoch hello kept %d, want 1", h.Kept)
	}
	if h := hello(9); h.Kept != 0 {
		t.Fatalf("new-epoch hello kept %d, want 0 after wipe", h.Kept)
	}
	if got := w.Resident(); got != 0 {
		t.Fatalf("resident after epoch adoption = %d, want 0", got)
	}
	if got := w.Adoptions(); got != 2 {
		t.Fatalf("adoptions = %d, want 2", got)
	}
}

// TestShardWorkerRestartRecovery is the tentpole's in-proc differential: the
// full workload, with a seeded kill/restart of one worker at an exec
// boundary, must stay bit-identical to the unfaulted single-engine run, the
// coordinator must log at least one recovery, and worker handle sets must
// balance afterwards.
func TestShardWorkerRestartRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	local, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runWorkload(t, local, ctx)
	cases := []struct {
		name   string
		worker int
		cfg    ChaosConfig
	}{
		{"w0-before-exec2", 0, ChaosConfig{Worker: testConfig(), CrashBeforeExec: []int64{2}}},
		{"w1-before-exec2", 1, ChaosConfig{Worker: testConfig(), CrashBeforeExec: []int64{2}}},
		{"w0-after-exec1", 0, ChaosConfig{Worker: testConfig(), CrashAfterExec: []int64{1}}},
		{"w1-after-exec1", 1, ChaosConfig{Worker: testConfig(), CrashAfterExec: []int64{1}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var chaos *ChaosTransport
			eng, coord := newShardedEngine(t, 2, func(wi int, tr Transport) Transport {
				if wi != tc.worker {
					return tr
				}
				ct, cerr := NewChaosTransport(tr, tc.cfg)
				if cerr != nil {
					t.Fatal(cerr)
				}
				chaos = ct
				return ct
			})
			got := runWorkload(t, eng, ctx)
			for name, w := range want {
				sameDense(t, name, w, got[name])
			}
			if chaos.Crashes() == 0 {
				t.Fatal("chaos schedule never fired")
			}
			if coord.Recoveries() == 0 {
				t.Fatal("no recovery recorded despite a worker restart")
			}
			if coord.ReplayedKeeps() == 0 {
				t.Fatal("no keeps replayed despite a worker restart")
			}
			if err := coord.CheckHandleBalance(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardCumCarryResume pins the mid-chain resume semantics of sequential
// cum.col passes: when a later shard's exec faults, the pass resumes from the
// recorded carry — earlier shards are NOT re-executed — and the result stays
// bitwise identical to the unfaulted single-engine run.
func TestShardCumCarryResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	run := func(eng *core.Engine) *dense.Dense {
		leaf, err := eng.Generate(testNRow, testNCol, matrix.F64, fillFrac)
		if err != nil {
			t.Fatal(err)
		}
		cum := core.CumCol(leaf, mustAgg(t, "+"))
		if err := eng.MaterializeCtx(ctx, []*core.Mat{cum}, nil); err != nil {
			t.Fatal(err)
		}
		d, err := eng.ToDense(cum)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	local, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := run(local)

	t.Run("transient-drop", func(t *testing.T) {
		var w0 countingTransport
		eng, _ := newShardedEngine(t, 3, func(wi int, tr Transport) Transport {
			switch wi {
			case 0:
				w0.inner = tr
				return &w0
			case 1:
				d := &dropOnce{inner: tr}
				d.armed.Store(true)
				return d
			}
			return tr
		})
		got := run(eng)
		sameDense(t, "cumsum", want, got)
		if n := w0.execs.Load(); n != 1 {
			t.Fatalf("worker 0 executed %d times; a mid-chain fault must resume, not restart the chain", n)
		}
	})

	t.Run("crash-restart", func(t *testing.T) {
		var w0 countingTransport
		var chaos *ChaosTransport
		eng, coord := newShardedEngine(t, 3, func(wi int, tr Transport) Transport {
			switch wi {
			case 0:
				w0.inner = tr
				return &w0
			case 1:
				ct, cerr := NewChaosTransport(tr, ChaosConfig{Worker: testConfig(), CrashBeforeExec: []int64{1}})
				if cerr != nil {
					t.Fatal(cerr)
				}
				chaos = ct
				return ct
			}
			return tr
		})
		got := run(eng)
		sameDense(t, "cumsum", want, got)
		if n := w0.execs.Load(); n != 1 {
			t.Fatalf("worker 0 executed %d times; recovery of worker 1 must not re-run worker 0", n)
		}
		if chaos.Crashes() != 1 || coord.Recoveries() == 0 {
			t.Fatalf("crashes=%d recoveries=%d, want 1/≥1", chaos.Crashes(), coord.Recoveries())
		}
		if err := coord.CheckHandleBalance(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardKeepLeakOnFailure pins that a RunDAG failure after partial keep
// allocation leaks no worker-side handles: keeps registered by the workers
// that did execute are cleaned up, and only registry leaves stay resident.
func TestShardKeepLeakOnFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	eng, coord := newShardedEngine(t, 2, func(wi int, tr Transport) Transport {
		if wi == 1 {
			return &failExecTransport{inner: tr}
		}
		return tr
	})
	leaf, err := eng.Generate(testNRow, testNCol, matrix.F64, fillInt)
	if err != nil {
		t.Fatal(err)
	}
	sap := core.Sapply(leaf, mustUnary(t, "square"))
	if err := eng.MaterializeCtx(ctx, []*core.Mat{sap}, nil); err == nil {
		t.Fatal("materialize succeeded despite a permanently failing worker")
	}
	var se *ShardError
	werr := eng.MaterializeCtx(ctx, []*core.Mat{sap}, nil)
	if !errors.As(werr, &se) || se.Worker != 1 || se.Op != opExec {
		t.Fatalf("want ShardError{Worker:1, Op:exec}, got %v", werr)
	}
	// Worker 0 executed and registered the keep; the failed pass must have
	// freed it. Only the pushed leaf may remain resident anywhere.
	if err := coord.CheckHandleBalance(); err != nil {
		t.Fatal(err)
	}
	for wi, tr := range coord.trs {
		lb := loopbackOf(tr)
		if got := lb.worker().Resident(); got != 1 {
			t.Fatalf("worker %d resident=%d after failed pass, want 1 (the leaf)", wi, got)
		}
	}
}

// miniServer answers exactly one framed request per accepted connection, then
// closes it — every reused coordinator connection sees the idle-reset case.
func miniServer(t *testing.T) (addr string, served *atomic.Int64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	go func() {
		for {
			conn, aerr := ln.Accept()
			if aerr != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var hdr [4]byte
				if _, rerr := io.ReadFull(conn, hdr[:]); rerr != nil {
					return
				}
				req := make([]byte, binary.BigEndian.Uint32(hdr[:]))
				if _, rerr := io.ReadFull(conn, req); rerr != nil {
					return
				}
				count.Add(1)
				payload := []byte("pong")
				frame := make([]byte, 5+len(payload))
				binary.BigEndian.PutUint32(frame, uint32(1+len(payload)))
				frame[4] = statusOK
				copy(frame[5:], payload)
				conn.Write(frame)
			}(conn)
		}
	}()
	return ln.Addr().String(), &count, func() { ln.Close() }
}

// TestTCPRedialOnce pins the reconnect contract: a connection reset on a
// reused, lazily-dialed connection redials and resends exactly once within
// the same call — no retry-budget attempt consumed, one redial counted per
// reset.
func TestTCPRedialOnce(t *testing.T) {
	addr, served, stop := miniServer(t)
	defer stop()
	tr := newTCPTransport(addr, 2*time.Second)
	defer tr.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		resp, err := tr.Call(ctx, opFetchPart, []byte{1, 2, 3})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp) != "pong" {
			t.Fatalf("call %d: payload %q", i, resp)
		}
	}
	// Call 0 dials fresh; calls 1 and 2 each find the conn closed by the
	// server and must redial exactly once.
	if got := tr.Redials(); got != 2 {
		t.Fatalf("redials = %d, want 2", got)
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("server served %d requests, want 3 (no duplicate resends)", got)
	}
}

// TestTCPRedialExhaustionTypedError pins the failure shape when the worker is
// gone for good: the retry budget drains and the caller gets
// ShardError{Worker, Op} with a transient cause inside.
func TestTCPRedialExhaustionTypedError(t *testing.T) {
	w, err := NewWorker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv, err := NewServer("127.0.0.1:0", w)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Addrs: []string{srv.Addr()}, Retries: 2,
		RetryBackoff: time.Millisecond, RPCTimeout: time.Second}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv.Close()
	_, cerr := coord.call(context.Background(), 0, opFetchPart,
		encodeFetchReq(fetchReq{Handle: "nope", Part: 0}), nil)
	var se *ShardError
	if !errors.As(cerr, &se) || se.Worker != 0 || se.Op != opFetchPart {
		t.Fatalf("want ShardError{Worker:0, Op:fetchpart}, got %v", cerr)
	}
	_, _, retries := coord.Totals()
	if retries != 2 {
		t.Fatalf("retries = %d, want the full budget of 2", retries)
	}
}

// TestShardCheckpointResume pins coordinator-restart semantics: a second
// coordinator built from the sidecar joins the same session epoch (workers
// keep their residents, the registry needs no re-push), and a subsequent
// worker restart still recovers via the re-bound registry.
func TestShardCheckpointResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ckpath := filepath.Join(t.TempDir(), "coord.ck")
	wcfg := testConfig()
	w0, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	srv0, err := NewServer("127.0.0.1:0", w0)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewServer("127.0.0.1:0", w1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	addr0 := srv0.Addr()
	cfg := Config{Addrs: []string{addr0, srv1.Addr()}, CheckpointPath: ckpath,
		Retries: 6, RetryBackoff: time.Millisecond, RPCTimeout: 2 * time.Second}

	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	coordA, err := NewCoordinator(cfg, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRemoteExecutor(coordA)
	leaf, err := eng.Generate(testNRow, testNCol, matrix.F64, fillInt)
	if err != nil {
		t.Fatal(err)
	}
	plus := mustAgg(t, "+")
	sum := core.Agg(leaf, plus)
	if err := eng.MaterializeCtx(ctx, nil, []*core.Sink{sum}); err != nil {
		t.Fatal(err)
	}
	if got := sum.Result(); got == nil || len(got.Data) != 1 {
		t.Fatalf("sum result %v, want a scalar", got)
	}
	coordA.Close()

	// Same process, new coordinator: resumes the epoch and the registry.
	coordB, err := NewCoordinator(cfg, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coordB.Close()
	if coordB.Epoch() != coordA.Epoch() {
		t.Fatalf("resumed epoch %x != original %x", coordB.Epoch(), coordA.Epoch())
	}
	eng.SetRemoteExecutor(coordB)
	max2 := core.Agg(leaf, mustAgg(t, "max"))
	if err := eng.MaterializeCtx(ctx, nil, []*core.Sink{max2}); err != nil {
		t.Fatal(err)
	}
	sentB, _, _ := coordB.Totals()
	leafBytes := int64(testNRow * testNCol * 8)
	if sentB >= leafBytes {
		t.Fatalf("resumed coordinator sent %d bytes; a re-push of the %d-byte leaf means the registry did not resume", sentB, leafBytes)
	}

	// Now kill -9 worker 0 and restart it on the same address: the next pass
	// must fence, recover (re-push via the re-bound registry), and agree.
	srv0.Close()
	w0.Close()
	w0b, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w0b.Close()
	srv0b, err := NewServer(addr0, w0b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv0b.Close()
	// A fresh expression (not the cached sum) so a real remote pass runs.
	sum3 := core.Agg(core.Sapply(leaf, mustUnary(t, "square")), plus)
	if err := eng.MaterializeCtx(ctx, nil, []*core.Sink{sum3}); err != nil {
		t.Fatal(err)
	}
	if coordB.Recoveries() == 0 {
		t.Fatal("no recovery recorded after the worker restart")
	}
	// fillInt produces small integers, so the sum of squares is exact in
	// float64 regardless of reduction order.
	var wantSq float64
	for g := int64(0); g < testNRow; g++ {
		for c := int64(0); c < testNCol; c++ {
			v := float64((g*7+c*3)%11) - 5
			wantSq += v * v
		}
	}
	got := sum3.Result()
	for i := range got.Data {
		if math.Float64bits(wantSq) != math.Float64bits(got.Data[i]) {
			t.Fatalf("sum diverged after recovery: %v != %v", wantSq, got.Data[i])
		}
	}
}
