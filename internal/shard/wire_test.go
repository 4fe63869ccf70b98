package shard

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
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
	prog := &core.Program{
		Nodes: []core.ProgramNode{
			{Op: 1, A: -1, B: -1, DT: 1, NCol: 3, Leaf: "m1-v0"},
			{Op: 4, A: 0, B: -1, DT: 1, NCol: 3, Un: "square", Vec: []float64{1.5, -2, 3},
				Cols: []int32{0, 2}, Labels: []int32{1}},
		},
		Talls: []int32{1},
		Sinks: []core.ProgramSink{{Kind: 2, A: 1, B: -1, Agg: "+", K: 4}},
		Cums:  []int32{1},
	}
	carries := map[int32][]float64{1: {0.5, 1.5, 2.5}}
	ck := &checkpoint{
		procNonce: 9, epoch: 7, shards: 2, partRows: 256, passSeq: 3,
		registry: []checkpointEntry{{id: 1, ver: 2, handle: "m1-v0"}},
		linSeq:   1,
		recs: []*lineageRec{{seq: 1, nrow: 512, prog: prog, keeps: []string{"t1-0"},
			done: []bool{true, false}, carriesIn: []map[int32][]float64{carries, nil},
			live: []bool{true}, final: true}},
	}
	return [][]byte{
		encodeHelloReq(helloReq{Version: protocolVersion, PartRows: 256, Epoch: 7}),
		encodeHelloResp(helloResp{Version: protocolVersion, PartRows: 256, Boot: 11, Kept: 2}),
		fenceBody(7, 11, encodeFetchReq(fetchReq{Handle: "m1", Part: 3})),
		encodePartReq(partReq{Handle: "m1", NRow: 512, NCol: 2, DT: 1, Part: 1, Data: []float64{1, 2, 3, 4}}),
		encodeExecReq(execRequest{Owner: "fuzz", Rows: 192, Prog: prog, Carries: carries,
			Keeps: []string{"t7-0"}, CarryOut: []int32{1}}),
		encodeExecResp(execResponse{
			Partials: []*core.SinkPartial{{Used: true, R: 1, C: 3, Data: []float64{1, 2, 3},
				Keys: []float64{-1, 4}, Counts: []int64{10, 20}, Folds: []float64{0.25}}},
			Carries: carries,
			Stats:   workerPassStats{Passes: 1, Parts: 3, BytesRead: 4096, Wall: time.Second},
		}),
		encodeCheckpoint(ck),
	}
}

// FuzzWireDecode feeds arbitrary bytes to every decoder that takes bytes
// from a peer or from disk. Each must return a value or an error, never
// panic, and allocate at most a fixed multiple of its input. The multiple
// covers the largest per-byte cost of any decoded element: a lineage
// record or a program node costs a few hundred bytes of structs and
// encodes in about ten.
func FuzzWireDecode(f *testing.F) {
	for _, b := range wireSeeds() {
		f.Add(b)
	}
	for _, h := range hostileFrames {
		f.Add(h.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		alloc := allocDuring(func() {
			decodeHelloReq(b)
			decodeHelloResp(b)
			splitFence(b)
			decodePartReq(b)
			decodeFetchReq(b)
			decodeExecReq(b)
			decodeExecResp(b)
			decodeCheckpoint(b)
		})
		if limit := 128*uint64(len(b)) + 1<<20; alloc > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(b), alloc, limit)
		}
	})
}
