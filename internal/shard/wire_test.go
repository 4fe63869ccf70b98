package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
)

// hostileFrames are length prefixes that claim far more elements than the
// frame holds. Each decoder must reject them before allocating.
var hostileFrames = []struct {
	name   string
	decode func([]byte) error
	b      []byte
}{
	// Empty owner, zero rows, zero program nodes, then Talls claiming 2^28
	// int32s.
	{"exec request talls", func(b []byte) error { _, err := decodeExecReq(b); return err },
		[]byte{0x00, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x01}},
	// One partial with empty Data and Keys, then Counts claiming 2^28 int64s.
	{"exec response counts", func(b []byte) error { _, err := decodeExecResp(b); return err },
		[]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x01}},
	// Zero partials, then a carry map claiming 2^28 entries.
	{"exec response carry map", func(b []byte) error { _, err := decodeExecResp(b); return err },
		[]byte{0x00, 0x80, 0x80, 0x80, 0x80, 0x01}},
}

// allocDuring returns the bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireDecodeHostileLengths: a peer controls every length prefix, so a
// few bytes must never buy a large allocation. Each frame fails with the
// typed decode error and allocates under 1 MiB.
func TestWireDecodeHostileLengths(t *testing.T) {
	for _, tc := range hostileFrames {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			alloc := allocDuring(func() { err = tc.decode(tc.b) })
			var de *decodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode error %v (%T), want *decodeError", err, err)
			}
			if alloc >= 1<<20 {
				t.Fatalf("%d-byte frame allocated %d bytes", len(tc.b), alloc)
			}
		})
	}
}

// wireSeeds returns one real encoding per decoder.
func wireSeeds() [][]byte {
	req := testExecRequest()
	ck := &checkpoint{
		procNonce: 9, epoch: 7, shards: 2, partRows: 256, passSeq: 3,
		registry: []checkpointEntry{{id: 1, ver: 2, handle: "m1-v0"}},
		linSeq:   1,
		recs: []*lineageRec{{seq: 1, nrow: 512, prog: req.Prog, keeps: []string{"t1-0"},
			done: []bool{true, false}, carriesIn: []map[int32][]float64{req.Carries, nil},
			live: []bool{true}, final: true}},
	}
	return [][]byte{
		encodeHelloReq(helloReq{Version: protocolVersion, PartRows: 256, Epoch: 7}),
		encodeHelloResp(helloResp{Version: protocolVersion, PartRows: 256, Boot: 11, Kept: 2}),
		fenceBody(7, 11, encodeFetchReq(fetchReq{Handle: "m1", Part: 3})),
		encodePartReq(partReq{Handle: "m1", NRow: 512, NCol: 2, DT: 1, Part: 1, Data: []float64{1, 2, 3, 4}}),
		encodeExecReq(req),
		encodeExecResp(execResponse{
			Partials: []*core.SinkPartial{{Used: true, R: 1, C: 3, Data: []float64{1, 2, 3},
				Keys: []float64{-1, 4}, Counts: []int64{10, 20}, Folds: []float64{0.25}}},
			Carries: req.Carries,
			Stats:   core.MaterializeStats{Passes: 1, Parts: 3, BytesRead: 4096, Wall: time.Second},
		}),
		encodeCheckpoint(ck),
	}
}

// invalidExecSeeds are exec requests breaking one validation rule each, in a
// fixed order. The decoder rejects the first five, the worker's leaf binding
// the last two; without the rule, each would reach the executor and panic
// there or compute from a leaf that is not what the program says.
func invalidExecSeeds() []struct {
	rule string
	b    []byte
} {
	mutate := func(f func(q *execRequest)) []byte {
		q := testExecRequest()
		f(&q)
		return encodeExecReq(q)
	}
	return []struct {
		rule string
		b    []byte
	}{
		{"forward index", mutate(func(q *execRequest) { q.Prog.Nodes[1].A = 2 })},
		{"unknown kernel", mutate(func(q *execRequest) { q.Prog.Nodes[1].Bin = "nope" })},
		{"column count", mutate(func(q *execRequest) {
			q.Prog.Nodes = append(q.Prog.Nodes, core.ProgramNode{Op: 2, A: 0, B: -1, NCol: 5, Un: "sqrt"})
			q.Prog.Sinks = append(q.Prog.Sinks, core.ProgramSink{Kind: 0, A: 4, B: -1, Agg: "+"})
		})},
		{"small length", mutate(func(q *execRequest) {
			q.Prog.Nodes = append(q.Prog.Nodes, core.ProgramNode{Op: 7, A: 0, B: -1, NCol: 2,
				SmallR: 3, SmallC: 2, Small: []float64{1, 2, 3, 4, 5}})
			q.Prog.Sinks = append(q.Prog.Sinks, core.ProgramSink{Kind: 0, A: 4, B: -1, Agg: "+"})
		})},
		{"unknown sink kind", mutate(func(q *execRequest) { q.Prog.Sinks[0] = core.ProgramSink{Kind: 9, A: 2, B: -1} })},
		{"leaf shape", mutate(func(q *execRequest) {
			// Consistently 2 columns wide from the leaf up: a valid program,
			// but not over the resident 3-column matrix.
			for i := 0; i < 3; i++ {
				q.Prog.Nodes[i].NCol = 2
			}
			q.Prog.Nodes[1].Vec = q.Prog.Nodes[1].Vec[:2]
			q.Carries[2] = q.Carries[2][:2]
		})},
		{"leaf dtype", mutate(func(q *execRequest) { q.Prog.Nodes[0].DT = 2 })},
	}
}

// TestShardExecRejectsInvalidPrograms pins the fuzz seeds' purpose: the valid
// request executes, and each broken one fails its exec with an error.
func TestShardExecRejectsInvalidPrograms(t *testing.T) {
	if _, err := execOnFuzzWorker(t, encodeExecReq(testExecRequest())); err != nil {
		t.Fatalf("valid request: %v", err)
	}
	for _, seed := range invalidExecSeeds() {
		if _, err := execOnFuzzWorker(t, seed.b); err == nil {
			t.Errorf("%s: exec succeeded", seed.rule)
		}
	}
}

// fuzzRows is the row count of the fuzz worker's resident leaves: m1-v0
// (3 columns, float64) and m2-v0 (1 column, int64), three partitions each.
const fuzzRows = 3 * testPartRows

// execOnFuzzWorker runs one exec request body on a fresh worker holding the
// two resident fuzz leaves.
func execOnFuzzWorker(t *testing.T, body []byte) ([]byte, error) {
	t.Helper()
	w, err := NewWorker(core.Config{Workers: 2, PartRows: testPartRows})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	if _, err := w.Handle(ctx, opHello, encodeHelloReq(helloReq{Version: protocolVersion, PartRows: testPartRows, Epoch: 7})); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		handle string
		ncol   int
		dt     matrix.DType
	}{{"m1-v0", 3, matrix.F64}, {"m2-v0", 1, matrix.I64}} {
		for part := 0; part < 3; part++ {
			data := make([]float64, testPartRows*l.ncol)
			for i := range data {
				data[i] = float64((part*7+i)%5) - 1
			}
			req := partReq{Handle: l.handle, NRow: fuzzRows, NCol: l.ncol, DT: uint8(l.dt), Part: part, Data: data}
			if _, err := w.Handle(ctx, opPushPart, fenceBody(7, w.Boot(), encodePartReq(req))); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := w.Handle(ctx, opExec, fenceBody(7, w.Boot(), body))
	if err == nil {
		// A successful exec read only leaves matching what the program
		// declared.
		q, derr := decodeExecReq(body)
		if derr != nil {
			t.Fatalf("exec succeeded on a request that does not decode: %v", derr)
		}
		for _, i := range q.Prog.Leaves() {
			n := q.Prog.Nodes[i]
			m, lerr := w.lookup(n.Leaf)
			if lerr != nil || m.NRow() != q.Rows || m.NCol() != int(n.NCol) || uint8(m.DType()) != n.DT {
				t.Fatalf("exec accepted leaf %q as %dx%d dtype %d, which is not the resident matrix", n.Leaf, q.Rows, n.NCol, n.DT)
			}
		}
	}
	return resp, err
}

// execBounded reports whether running q stays tiny: a mutated program may
// declare millions of rows or columns, which would test the host's memory,
// not the worker.
func execBounded(q execRequest) bool {
	if q.Rows < 0 || q.Rows > fuzzRows || len(q.Prog.Nodes) > 64 {
		return false
	}
	for _, n := range q.Prog.Nodes {
		if n.NCol > 64 {
			return false
		}
	}
	for _, s := range q.Prog.Sinks {
		if s.K > 64 {
			return false
		}
	}
	return true
}

// FuzzWireDecode feeds arbitrary bytes to every decoder that takes bytes
// from a peer or from disk. Each must return a value or an error, never
// panic, and allocate at most a fixed multiple of its input. The multiple
// covers the largest per-byte cost of any decoded element: a lineage
// record or a program node costs a few hundred bytes of structs and
// encodes in about ten.
//
// An exec request that decodes (and is small enough to run cheaply) then
// runs on a worker holding two resident leaves: it must return a response
// or an error — never panic, and never fail by a panic the executor
// recovered, since resolution must reject every program the executor cannot
// run.
func FuzzWireDecode(f *testing.F) {
	for _, b := range wireSeeds() {
		f.Add(b)
	}
	for _, h := range hostileFrames {
		f.Add(h.b)
	}
	for _, seed := range invalidExecSeeds() {
		f.Add(seed.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var q execRequest
		var qerr error
		alloc := allocDuring(func() {
			decodeHelloReq(b)
			decodeHelloResp(b)
			splitFence(b)
			decodePartReq(b)
			decodeFetchReq(b)
			q, qerr = decodeExecReq(b)
			decodeExecResp(b)
			decodeCheckpoint(b)
		})
		if limit := 128*uint64(len(b)) + 1<<20; alloc > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(b), alloc, limit)
		}
		if qerr != nil || !execBounded(q) {
			return
		}
		if _, err := execOnFuzzWorker(t, b); err != nil && strings.Contains(err.Error(), "panic") {
			t.Fatalf("exec of a decoded program panicked: %v", err)
		}
	})
}
