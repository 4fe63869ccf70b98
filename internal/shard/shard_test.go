package shard

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/matrix"
)

const (
	testPartRows = 64
	testNRow     = 300 // 5 partitions of 64: shard0 gets 3, shard1 gets 2
	testNCol     = 3
)

func testConfig() core.Config {
	return core.Config{Workers: 2, PartRows: testPartRows}
}

// fillInt is a partition-independent integer-valued fill: exact under any
// regrouping of the shard combine, so results must be bit-identical.
func fillInt(startRow int64, rows int, buf []float64) {
	for r := 0; r < rows; r++ {
		g := startRow + int64(r)
		for c := 0; c < testNCol; c++ {
			buf[r*testNCol+c] = float64((g*7+int64(c)*3)%11) - 5
		}
	}
}

// fillFrac has non-terminating binary fractions — used only where bitwise
// equality is still guaranteed (carry-seeded cumulative folds).
func fillFrac(startRow int64, rows int, buf []float64) {
	for r := 0; r < rows; r++ {
		g := startRow + int64(r)
		for c := 0; c < testNCol; c++ {
			buf[r*testNCol+c] = math.Sin(float64(g)*1.7 + float64(c))
		}
	}
}

func newShardedEngine(t *testing.T, shards int, wrap func(int, Transport) Transport) (*core.Engine, *Coordinator) {
	t.Helper()
	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Shards: shards, WrapTransport: wrap,
		Retries: 8, RetryBackoff: time.Millisecond}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	eng.SetRemoteExecutor(coord)
	return eng, coord
}

func sameDense(t *testing.T, what string, a, b *dense.Dense) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil result (local %v, shard %v)", what, a != nil, b != nil)
	}
	if a.R != b.R || a.C != b.C {
		t.Fatalf("%s: local %dx%d, shard %dx%d", what, a.R, a.C, b.R, b.C)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d local %v shard %v", what, i, a.Data[i], b.Data[i])
		}
	}
}

// runWorkload builds one DAG covering every sink kind plus tall and
// cumulative targets, materializes it, and returns all results.
func runWorkload(t *testing.T, eng *core.Engine, ctx context.Context) map[string]*dense.Dense {
	t.Helper()
	leaf, err := eng.Generate(testNRow, testNCol, matrix.F64, fillInt)
	if err != nil {
		t.Fatal(err)
	}
	plus := mustAgg(t, "+")
	maxf := mustAgg(t, "max")
	square := mustUnary(t, "square")

	sap := core.Sapply(leaf, square)
	cum := core.CumCol(leaf, plus)
	col0 := core.Cols(leaf, []int{0})
	sum := core.Agg(leaf, plus)
	colMax := core.AggCol(leaf, maxf)
	xp := core.CrossProd(leaf, leaf, nil, nil) // same object: Syrk kernel
	tbl := core.Table(col0)
	gbv := core.GroupByVal(col0, plus)
	talls := []*core.Mat{sap, cum}
	sinks := []*core.Sink{sum, colMax, xp, tbl, gbv}
	if err := eng.MaterializeCtx(ctx, talls, sinks); err != nil {
		t.Fatal(err)
	}
	out := map[string]*dense.Dense{
		"sum": sum.Result(), "colmax": colMax.Result(), "crossprod": xp.Result(),
		"table": tbl.Result(), "groupby": gbv.Result(),
	}
	for name, m := range map[string]*core.Mat{"sapply": sap, "cumsum": cum} {
		d, derr := eng.ToDense(m)
		if derr != nil {
			t.Fatalf("%s: %v", name, derr)
		}
		out[name] = d
	}
	// Second pass over the materialized cumulative column: on the sharded
	// path this input is a worker-resident RemoteStore, exercising the
	// reference (no re-push) leaf path.
	sum2 := core.Agg(cum, plus)
	if err := eng.MaterializeCtx(ctx, nil, []*core.Sink{sum2}); err != nil {
		t.Fatal(err)
	}
	out["sum2"] = sum2.Result()
	return out
}

func mustAgg(t *testing.T, name string) *core.AggFunc {
	t.Helper()
	f, err := core.LookupAgg(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustUnary(t *testing.T, name string) *core.Unary {
	t.Helper()
	f, err := core.LookupUnary(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShardEquivalence runs the full workload single-engine and across 2 and
// 4 in-process shards; every channel must be bit-identical.
func TestShardEquivalence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	local, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runWorkload(t, local, ctx)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, coord := newShardedEngine(t, shards, nil)
			got := runWorkload(t, eng, ctx)
			for name, w := range want {
				sameDense(t, name, w, got[name])
			}
			sent, recv, _ := coord.Totals()
			if sent == 0 || recv == 0 {
				t.Fatalf("wire totals sent=%d recv=%d, want both nonzero", sent, recv)
			}
			ms := eng.TotalMaterializeStats()
			if ms.ShardPasses == 0 || ms.ShardAggRounds == 0 {
				t.Fatalf("stats not threaded: %+v", ms)
			}
			if ms.BytesRead != 0 {
				t.Fatalf("remote pass attributed %d local read bytes; worker I/O must stay in ShardWorkerRead", ms.BytesRead)
			}
			// In-memory worker stores read leaves zero-copy, so assert on
			// written tall-output bytes, which are always counted.
			if ms.ShardWorkerWritten == 0 {
				t.Fatal("worker written bytes not reported")
			}
		})
	}
}

// TestShardCumCarryBitIdentical checks the carry-seeded sequential path on
// data with non-terminating fractions: cumulative sums must still match the
// single-engine result bitwise, because shard s+1 continues from shard s's
// exact accumulator rather than re-summing. The sink-only case,
// sum(cumsum(x)), threads the same carries without any shard writing the
// cumulative column out: each returns its scan's exit accumulator.
func TestShardCumCarryBitIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	run := func(eng *core.Engine) (cum, sum *dense.Dense, written int64) {
		leaf, err := eng.Generate(testNRow, testNCol, matrix.F64, fillFrac)
		if err != nil {
			t.Fatal(err)
		}
		plus := mustAgg(t, "+")
		s := core.Agg(core.CumCol(leaf, plus), plus)
		ms, err := eng.MaterializePass(ctx, nil, []*core.Sink{s}, core.PassOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c := core.CumCol(leaf, plus)
		if err := eng.MaterializeCtx(ctx, []*core.Mat{c}, nil); err != nil {
			t.Fatal(err)
		}
		d, err := eng.ToDense(c)
		if err != nil {
			t.Fatal(err)
		}
		return d, s.Result(), ms.ShardWorkerWritten
	}
	local, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantCum, wantSum, _ := run(local)
	for _, shards := range []int{2, 3} {
		eng, _ := newShardedEngine(t, shards, nil)
		cum, sum, written := run(eng)
		sameDense(t, fmt.Sprintf("cumsum shards=%d", shards), wantCum, cum)
		sameDense(t, fmt.Sprintf("sum(cumsum) shards=%d", shards), wantSum, sum)
		if written != 0 {
			t.Fatalf("shards=%d: sink-only sum(cumsum) wrote %d bytes on the workers", shards, written)
		}
	}
}

// TestShardTallWorkerResident checks that tall results stay on the workers: a
// materialized target's store is the coordinator's RemoteStore, and a second
// pass consuming it pushes no fresh leaf data.
func TestShardTallWorkerResident(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	eng, coord := newShardedEngine(t, 2, nil)
	leaf, err := eng.Generate(testNRow, testNCol, matrix.F64, fillInt)
	if err != nil {
		t.Fatal(err)
	}
	plus := mustAgg(t, "+")
	tall := core.Sapply(leaf, mustUnary(t, "square"))
	if err := eng.MaterializeCtx(ctx, []*core.Mat{tall}, nil); err != nil {
		t.Fatal(err)
	}
	rs, ok := core.UnwrapStore(tall.Store()).(*RemoteStore)
	if !ok {
		t.Fatalf("tall store is %T (%s), want *RemoteStore", tall.Store(), tall.Store().Kind())
	}
	sentBefore, _, _ := coord.Totals()
	sum := core.Agg(tall, plus)
	if err := eng.MaterializeCtx(ctx, nil, []*core.Sink{sum}); err != nil {
		t.Fatal(err)
	}
	sentAfter, _, _ := coord.Totals()
	// The second pass references the resident handle: traffic is just the
	// program + partials, far below one partition of leaf data.
	if delta := sentAfter - sentBefore; delta > int64(testPartRows*testNCol*8/2) {
		t.Fatalf("second pass sent %d bytes; tall was not worker-resident (handle %s)", delta, rs.Handle())
	}
	// Cross-check the result against a local compute of sum(square(x)).
	var want float64
	buf := make([]float64, testPartRows*testNCol)
	for p := 0; p < matrix.NumParts(testNRow, testPartRows); p++ {
		rows := matrix.PartRowsOf(testNRow, testPartRows, p)
		fillInt(int64(p)*testPartRows, rows, buf)
		for _, v := range buf[:rows*testNCol] {
			want += v * v
		}
	}
	if got := sum.Result().Data[0]; got != want {
		t.Fatalf("sum(square) = %v, want %v", got, want)
	}
}

// TestShardFaultRecovery drives the full workload through transports
// injecting seeded drops, duplicate deliveries, latency spikes, and
// mid-stream resets (request executed, response lost). With a retry budget
// the coordinator must complete with bit-identical results — resets in
// particular prove every op is idempotent.
func TestShardFaultRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	local, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runWorkload(t, local, ctx)
	cases := []struct {
		name string
		cfg  FaultConfig
	}{
		{"drops", FaultConfig{Seed: 1, DropProb: 0.3}},
		{"dups", FaultConfig{Seed: 2, DupProb: 0.4}},
		{"resets", FaultConfig{Seed: 3, ResetProb: 0.3}},
		{"latency", FaultConfig{Seed: 4, DelayProb: 0.5, Delay: 2 * time.Millisecond}},
		{"mixed", FaultConfig{Seed: 5, DropProb: 0.15, DupProb: 0.15, ResetProb: 0.15, DelayProb: 0.2, Delay: time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fts []*FaultTransport
			eng, _ := newShardedEngine(t, 2, func(i int, tr Transport) Transport {
				ft, ferr := NewFaultTransport(tr, FaultConfig{Seed: tc.cfg.Seed + int64(i),
					DropProb: tc.cfg.DropProb, ResetProb: tc.cfg.ResetProb,
					DupProb: tc.cfg.DupProb, DelayProb: tc.cfg.DelayProb, Delay: tc.cfg.Delay})
				if ferr != nil {
					t.Fatal(ferr)
				}
				fts = append(fts, ft)
				return ft
			})
			got := runWorkload(t, eng, ctx)
			for name, w := range want {
				sameDense(t, name, w, got[name])
			}
			var fired int64
			for _, ft := range fts {
				d, r, du, de := ft.Injected()
				fired += d + r + du + de
			}
			if fired == 0 {
				t.Fatal("fault plan injected nothing; the test proved nothing")
			}
		})
	}
}

// TestShardFaultSurfacesTypedError checks the no-retry path: a permanently
// dropping transport must surface a *ShardError naming the worker and op —
// never a hang, never a silently partial result.
func TestShardFaultSurfacesTypedError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Hello must pass, so faults start only after construction.
	armed := false
	coord, err := NewCoordinator(Config{Shards: 2, Retries: -1,
		WrapTransport: func(i int, tr Transport) Transport {
			if i != 1 {
				return tr
			}
			return transportFunc{call: func(ctx context.Context, op uint8, body []byte) ([]byte, error) {
				if armed {
					return nil, &FaultError{Kind: "drop", Op: op}
				}
				return tr.Call(ctx, op, body)
			}, close: tr.Close}
		}}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	eng.SetRemoteExecutor(coord)
	armed = true

	leaf, err := eng.Generate(testNRow, testNCol, matrix.F64, fillInt)
	if err != nil {
		t.Fatal(err)
	}
	sum := core.Agg(leaf, mustAgg(t, "+"))
	merr := eng.MaterializeCtx(ctx, nil, []*core.Sink{sum})
	if merr == nil {
		t.Fatal("materialize succeeded through a dead worker")
	}
	var se *ShardError
	if !errors.As(merr, &se) {
		t.Fatalf("error %v (%T) is not a *ShardError", merr, merr)
	}
	if se.Worker != 1 {
		t.Fatalf("ShardError names worker %d, want 1", se.Worker)
	}
	if sum.Done() {
		t.Fatal("sink published a partial aggregate after a failed pass")
	}
	var fe *FaultError
	if !errors.As(merr, &fe) {
		t.Fatalf("ShardError does not unwrap to the injected fault: %v", merr)
	}
}

type transportFunc struct {
	call  func(ctx context.Context, op uint8, body []byte) ([]byte, error)
	close func() error
}

func (t transportFunc) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	return t.call(ctx, op, body)
}
func (t transportFunc) Close() error { return t.close() }

// TestShardTCPTransport runs the workload over real localhost TCP servers.
func TestShardTCPTransport(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var addrs []string
	var servers []*Server
	for i := 0; i < 2; i++ {
		w, err := NewWorker(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer("127.0.0.1:0", w)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		defer w.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	local, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runWorkload(t, local, ctx)
	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Addrs: addrs}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRemoteExecutor(coord)
	got := runWorkload(t, eng, ctx)
	for name, w := range want {
		sameDense(t, name, w, got[name])
	}
	coord.Close()
	for i, srv := range servers {
		srv.Drain()
		if srv.Accepted() != srv.Answered() {
			t.Fatalf("server %d drained dirty: accepted %d answered %d", i, srv.Accepted(), srv.Answered())
		}
	}
}

// TestSplitParts pins the deterministic shard split.
func TestSplitParts(t *testing.T) {
	sh := splitParts(300, 64, 2)
	wantParts := [][2]int{{0, 3}, {3, 2}}
	wantRows := []int64{192, 108}
	for i := range sh {
		if sh[i].part0 != wantParts[i][0] || sh[i].nparts != wantParts[i][1] || sh[i].rows != wantRows[i] {
			t.Fatalf("shard %d = %+v, want part0=%d nparts=%d rows=%d",
				i, sh[i], wantParts[i][0], wantParts[i][1], wantRows[i])
		}
	}
	// More shards than partitions: trailing shards are empty, never negative.
	for _, sr := range splitParts(100, 64, 4) {
		if sr.nparts < 0 || sr.rows < 0 {
			t.Fatalf("negative shard range %+v", sr)
		}
	}
}

// testProgram is a small valid program exercising most wire fields: a
// leaf, a row-vector sweep, a carried cum.col kept as a tall, and a
// groupby.row sink labelled by which.min.
func testProgram() *core.Program {
	return &core.Program{
		Nodes: []core.ProgramNode{
			{Op: 0, A: -1, B: -1, DT: 0, NCol: 3, Leaf: "m1-v0"},
			{Op: 5, A: 0, B: -1, DT: 0, NCol: 3, Bin: "+", Vec: []float64{1.5, -2, 3}},
			{Op: 11, A: 1, B: -1, DT: 0, NCol: 3, Agg: "+"},
			{Op: 8, A: 2, B: -1, DT: 1, NCol: 1, Arg: 1},
		},
		Talls: []int32{2},
		Sinks: []core.ProgramSink{{Kind: 2, A: 2, B: 3, Agg: "+", K: 4}},
		Cums:  []int32{2},
	}
}

func testExecRequest() execRequest {
	return execRequest{
		Owner:    "tester",
		Rows:     192,
		Prog:     testProgram(),
		Carries:  map[int32][]float64{2: {0.5, 1.5, 2.5}},
		Keeps:    []string{"t7-0"},
		CarryOut: []int32{2},
	}
}

// goldenExecRequest pins testExecRequest's encoding. The exec wire format
// is what protocolVersion and the checkpoint files promise: changing these
// bytes needs a version bump.
const goldenExecRequest = "0674657374657280030400010100060000000000000000000000000000000000000000000000056d312d76300000000000000000050001000600012b000000000000000000000003000000000000f83f00000000000000c000000000000008400000000000000000000000000000000000000b020100060000012b000000000000000000000000000000000000000000000000000000000008040101020000000100000000000000000000000000000000000000000000000000000000010401020406012b0000080104010403000000000000e03f000000000000f83f0000000000000440010474372d300104"

// goldenExecResponse pins the encoding of TestWireExecRoundTrip's response,
// including the worker pass counters it carries back.
const goldenExecResponse = "0101020603000000000000f03f0000000000000040000000000000084002000000000000f0bf000000000000104002142801000000000000d03f010203000000000000224000000000000020400000000000001c4002060a80408080010e80a8d6b907"

// TestWireExecRoundTrip pins the exec request/response codec.
func TestWireExecRoundTrip(t *testing.T) {
	req := testExecRequest()
	enc := encodeExecReq(req)
	if got := hex.EncodeToString(enc); got != goldenExecRequest {
		t.Fatalf("exec request encoding moved:\n got %s\nwant %s", got, goldenExecRequest)
	}
	dec, err := decodeExecReq(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeExecReq(dec), enc) {
		t.Fatal("decode → re-encode does not reproduce the request bytes")
	}
	if dec.Owner != req.Owner || dec.Rows != req.Rows || len(dec.Prog.Nodes) != 4 ||
		dec.Prog.Nodes[1].Bin != "+" || len(dec.Keeps) != 1 || dec.Keeps[0] != "t7-0" ||
		len(dec.Carries[2]) != 3 || dec.Carries[2][2] != 2.5 {
		t.Fatalf("exec request did not round-trip: %+v", dec)
	}
	resp := execResponse{
		Partials: []*core.SinkPartial{{Used: true, R: 1, C: 3, Data: []float64{1, 2, 3},
			Keys: []float64{-1, 4}, Counts: []int64{10, 20}, Folds: []float64{0.25}}},
		Carries: map[int32][]float64{1: {9, 8, 7}},
		Stats: core.MaterializeStats{Passes: 1, Parts: 3, Chunks: 5, BytesRead: 4096,
			BytesWritten: 8192, NodesExecuted: 7, Wall: time.Second},
	}
	renc := encodeExecResp(resp)
	if got := hex.EncodeToString(renc); got != goldenExecResponse {
		t.Fatalf("exec response encoding moved:\n got %s\nwant %s", got, goldenExecResponse)
	}
	rdec, err := decodeExecResp(renc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeExecResp(rdec), renc) {
		t.Fatal("decode → re-encode does not reproduce the response bytes")
	}
	if !rdec.Partials[0].Used || rdec.Partials[0].Data[2] != 3 || rdec.Partials[0].Counts[1] != 20 ||
		rdec.Carries[1][0] != 9 || rdec.Stats != resp.Stats {
		t.Fatalf("exec response did not round-trip: %+v", rdec)
	}
	// Truncated frames must fail decoding, not panic or misparse.
	full := encodeExecResp(resp)
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := decodeExecResp(full[:cut]); err == nil && cut < len(full)-1 {
			// Some prefixes are self-consistent (trailing zero-value stats);
			// only a decode that invents partials is a failure.
			if r2, _ := decodeExecResp(full[:cut]); len(r2.Partials) > len(resp.Partials) {
				t.Fatalf("truncated frame at %d decoded extra partials", cut)
			}
		}
	}
}

// TestShardHelloRejectsMismatch pins the handshake: a worker with a different
// partition height must be refused at construction.
func TestShardHelloRejectsMismatch(t *testing.T) {
	w, err := NewWorker(core.Config{Workers: 1, PartRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv, err := NewServer("127.0.0.1:0", w)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = NewCoordinator(Config{Addrs: []string{srv.Addr()}}, testConfig())
	if err == nil {
		t.Fatal("coordinator accepted a worker with mismatched part-rows")
	}
}
