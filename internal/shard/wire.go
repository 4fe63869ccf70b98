// Package shard is the multi-process execution engine: a coordinator that
// row-partitions named matrices across N workers — each running its own core
// engine (and, over TCP, its own SAFS array) — splits every captured DAG
// into per-shard passes, and combines the workers' raw sink
// partials in one aggregation exchange per pass. The transport is pluggable:
// an in-process loopback for deterministic tests and a length-prefixed TCP
// framing for real deployment, both speaking the same hand-rolled binary
// wire format below.
package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// protocolVersion gates coordinator/worker compatibility in the hello
// handshake; the wire format has no cross-version compatibility story beyond
// refusing to talk. Version 3 added session-epoch fencing: hello carries the
// coordinator's epoch, the response carries the worker's boot id, and every
// other request is prefixed with the (epoch, boot) fence.
const protocolVersion = 3

// RPC opcodes. Every op is idempotent: pushes and writes overwrite the same
// partition bytes, exec recomputes and re-registers the same handles, frees
// tolerate missing handles — so the retry/backoff layer and duplicate
// deliveries are always safe.
const (
	opHello     uint8 = 1
	opPushPart  uint8 = 2
	opExec      uint8 = 3
	opFetchPart uint8 = 4
	opWritePart uint8 = 5
	opFreeMat   uint8 = 6
)

func opName(op uint8) string {
	switch op {
	case opHello:
		return "hello"
	case opPushPart:
		return "pushpart"
	case opExec:
		return "exec"
	case opFetchPart:
		return "fetchpart"
	case opWritePart:
		return "writepart"
	case opFreeMat:
		return "freemat"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// wbuf is the append-only wire encoder.
type wbuf struct {
	b []byte
}

func (w *wbuf) u8(v uint8) { w.b = append(w.b, v) }
func (w *wbuf) bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.u8(b)
}
func (w *wbuf) uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}
func (w *wbuf) varint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}
func (w *wbuf) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}
func (w *wbuf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) f64s(xs []float64) {
	w.uvarint(uint64(len(xs)))
	for _, v := range xs {
		w.f64(v)
	}
}
func (w *wbuf) i64s(xs []int64) {
	w.uvarint(uint64(len(xs)))
	for _, v := range xs {
		w.varint(v)
	}
}
func (w *wbuf) i32s(xs []int32) {
	w.uvarint(uint64(len(xs)))
	for _, v := range xs {
		w.varint(int64(v))
	}
}

// decodeError is the typed failure of every wire and checkpoint decoder: a
// truncated field, or a length prefix the bytes left cannot hold.
type decodeError struct {
	what string
	off  int
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("shard: truncated or malformed %s at offset %d", e.what, e.off)
}

// rbuf is the wire decoder; the first malformed field latches err and every
// later read returns zero values.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = &decodeError{what: what, off: r.off}
	}
}

func (r *rbuf) u8() uint8 {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) bool() bool { return r.u8() != 0 }

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *rbuf) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *rbuf) f64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// sliceLen reads a length prefix. Every element takes at least one byte, so
// a length beyond the bytes left is malformed: a hostile frame must fail
// here, before any caller sizes an allocation from it.
func (r *rbuf) sliceLen(what string) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.fail(what + " length")
		return 0
	}
	return int(n)
}

func (r *rbuf) str() string {
	n := r.sliceLen("string")
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rbuf) f64s() []float64 {
	n := r.sliceLen("float64 slice")
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if r.off+8*n > len(r.b) {
		r.fail("float64 slice")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *rbuf) i64s() []int64 {
	n := r.sliceLen("int64 slice")
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.varint()
	}
	return out
}

func (r *rbuf) i32s() []int32 {
	n := r.sliceLen("int32 slice")
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.varint())
	}
	return out
}

// --- message types ---

// helloReq opens (or re-opens) a session with a worker. Epoch is the
// coordinator's session epoch: a worker holding a different epoch frees all
// resident matrices and adopts the new one; a worker already holding it keeps
// its state (the recovery re-hello and the checkpoint-resume path).
type helloReq struct {
	Version  int
	PartRows int
	Epoch    uint64
}

// helloResp returns the worker's identity: Boot is the per-process random
// boot id (a restarted worker answers with a fresh one), Kept is how many
// matrices survived the epoch install (nonzero only when the epochs matched).
type helloResp struct {
	Version  int
	PartRows int
	Boot     uint64
	Kept     int64
}

func encodeHelloReq(h helloReq) []byte {
	var w wbuf
	w.varint(int64(h.Version))
	w.varint(int64(h.PartRows))
	w.uvarint(h.Epoch)
	return w.b
}

func decodeHelloReq(b []byte) (helloReq, error) {
	r := rbuf{b: b}
	h := helloReq{Version: int(r.varint()), PartRows: int(r.varint()), Epoch: r.uvarint()}
	return h, r.err
}

func encodeHelloResp(h helloResp) []byte {
	var w wbuf
	w.varint(int64(h.Version))
	w.varint(int64(h.PartRows))
	w.uvarint(h.Boot)
	w.varint(h.Kept)
	return w.b
}

func decodeHelloResp(b []byte) (helloResp, error) {
	r := rbuf{b: b}
	h := helloResp{Version: int(r.varint()), PartRows: int(r.varint()),
		Boot: r.uvarint(), Kept: r.varint()}
	return h, r.err
}

// fenceBody prefixes a non-hello request body with the (epoch, boot) fence.
// The worker rejects any request whose fence does not name its current epoch
// and its own boot id, so a restarted worker (fresh boot, no epoch) and a
// stale coordinator (old epoch) both fail typed instead of touching state.
func fenceBody(epoch, boot uint64, body []byte) []byte {
	var w wbuf
	w.uvarint(epoch)
	w.uvarint(boot)
	w.b = append(w.b, body...)
	return w.b
}

// splitFence strips and returns the fence prefix of a request body.
func splitFence(body []byte) (epoch, boot uint64, rest []byte, err error) {
	r := rbuf{b: body}
	epoch = r.uvarint()
	boot = r.uvarint()
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	return epoch, boot, body[r.off:], nil
}

// partReq carries one partition of matrix data (opPushPart creates the
// worker-resident matrix on first touch; opWritePart requires it to exist and
// bumps its content version).
type partReq struct {
	Handle string
	NRow   int64 // worker-local rows for the whole handle
	NCol   int
	DT     uint8
	Part   int
	Data   []float64
}

func encodePartReq(q partReq) []byte {
	var w wbuf
	w.str(q.Handle)
	w.varint(q.NRow)
	w.varint(int64(q.NCol))
	w.u8(q.DT)
	w.varint(int64(q.Part))
	w.f64s(q.Data)
	return w.b
}

func decodePartReq(b []byte) (partReq, error) {
	r := rbuf{b: b}
	q := partReq{
		Handle: r.str(),
		NRow:   r.varint(),
		NCol:   int(r.varint()),
		DT:     r.u8(),
		Part:   int(r.varint()),
		Data:   r.f64s(),
	}
	return q, r.err
}

type fetchReq struct {
	Handle string
	Part   int
}

func encodeFetchReq(q fetchReq) []byte {
	var w wbuf
	w.str(q.Handle)
	w.varint(int64(q.Part))
	return w.b
}

func decodeFetchReq(b []byte) (fetchReq, error) {
	r := rbuf{b: b}
	q := fetchReq{Handle: r.str(), Part: int(r.varint())}
	return q, r.err
}

// execRequest ships one shard's slice of a pass: the shared program, the
// shard's row count, the carry entering each cum.col node (absent on the
// first shard), the keep handle per tall target (aligned with Prog.Talls —
// two tall positions may share a node index when the plan unified them, and
// each still gets its own handle), and which nodes to report exit carries
// for.
type execRequest struct {
	Owner    string
	Rows     int64
	Prog     *core.Program
	Carries  map[int32][]float64
	Keeps    []string
	CarryOut []int32
}

type execResponse struct {
	Partials []*core.SinkPartial
	Carries  map[int32][]float64
	// Stats is the worker's record of the pass. Only Passes, Parts, Chunks,
	// BytesRead, BytesWritten, NodesExecuted and Wall cross the wire.
	Stats core.MaterializeStats
}

func encodeProgram(w *wbuf, p *core.Program) {
	w.uvarint(uint64(len(p.Nodes)))
	for _, n := range p.Nodes {
		w.u8(n.Op)
		w.varint(int64(n.A))
		w.varint(int64(n.B))
		w.u8(n.DT)
		w.varint(int64(n.NCol))
		w.str(n.Un)
		w.str(n.Bin)
		w.str(n.Agg)
		w.u8(n.Arg)
		w.f64(n.Scalar)
		w.bool(n.ScalarLeft)
		w.f64s(n.Vec)
		w.bool(n.VecLeft)
		w.varint(int64(n.SmallR))
		w.varint(int64(n.SmallC))
		w.f64s(n.Small)
		w.str(n.F1)
		w.str(n.F2)
		w.i32s(n.Cols)
		w.i32s(n.Labels)
		w.varint(int64(n.GroupK))
		w.str(n.Leaf)
		w.f64(n.Const)
	}
	w.i32s(p.Talls)
	w.uvarint(uint64(len(p.Sinks)))
	for _, s := range p.Sinks {
		w.u8(s.Kind)
		w.varint(int64(s.A))
		w.varint(int64(s.B))
		w.str(s.Agg)
		w.str(s.F1)
		w.str(s.F2)
		w.varint(int64(s.K))
	}
	w.i32s(p.Cums)
}

// decodeProgram parses a program and resolves it: a program the executor
// could not run (a forward or dangling index, an unknown function or sink
// kind, a column count its operands do not give, a vector or index operand
// of the wrong length) fails as a decode error, never reaching a worker.
func decodeProgram(r *rbuf) *core.Program {
	p := &core.Program{}
	n := r.sliceLen("program nodes")
	for i := 0; i < n && r.err == nil; i++ {
		pn := core.ProgramNode{
			Op:         r.u8(),
			A:          int32(r.varint()),
			B:          int32(r.varint()),
			DT:         r.u8(),
			NCol:       int32(r.varint()),
			Un:         r.str(),
			Bin:        r.str(),
			Agg:        r.str(),
			Arg:        r.u8(),
			Scalar:     r.f64(),
			ScalarLeft: r.bool(),
			Vec:        r.f64s(),
			VecLeft:    r.bool(),
			SmallR:     int32(r.varint()),
			SmallC:     int32(r.varint()),
			Small:      r.f64s(),
			F1:         r.str(),
			F2:         r.str(),
			Cols:       r.i32s(),
			Labels:     r.i32s(),
			GroupK:     int32(r.varint()),
			Leaf:       r.str(),
			Const:      r.f64(),
		}
		p.Nodes = append(p.Nodes, pn)
	}
	p.Talls = r.i32s()
	ns := r.sliceLen("program sinks")
	for i := 0; i < ns && r.err == nil; i++ {
		p.Sinks = append(p.Sinks, core.ProgramSink{
			Kind: r.u8(),
			A:    int32(r.varint()),
			B:    int32(r.varint()),
			Agg:  r.str(),
			F1:   r.str(),
			F2:   r.str(),
			K:    int32(r.varint()),
		})
	}
	p.Cums = r.i32s()
	if r.err == nil {
		if err := p.Resolve(); err != nil {
			r.err = &decodeError{what: "program: " + err.Error(), off: r.off}
		}
	}
	return p
}

func encodeCarryMap(w *wbuf, m map[int32][]float64, order []int32) {
	w.uvarint(uint64(len(m)))
	for _, idx := range order {
		if vs, ok := m[idx]; ok {
			w.varint(int64(idx))
			w.f64s(vs)
		}
	}
}

func decodeCarryMap(r *rbuf) map[int32][]float64 {
	n := r.sliceLen("carry map")
	if n == 0 {
		return nil
	}
	m := make(map[int32][]float64, n)
	for i := 0; i < n && r.err == nil; i++ {
		idx := int32(r.varint())
		m[idx] = r.f64s()
	}
	return m
}

func encodeExecReq(q execRequest) []byte {
	var w wbuf
	w.str(q.Owner)
	w.varint(q.Rows)
	encodeProgram(&w, q.Prog)
	// Order by the map's own keys, not CarryOut: replay requests carry entry
	// carries without requesting any carry-out.
	order := make([]int32, 0, len(q.Carries))
	for idx := range q.Carries {
		order = append(order, idx)
	}
	sortInt32s(order)
	encodeCarryMap(&w, q.Carries, order)
	w.uvarint(uint64(len(q.Keeps)))
	for _, h := range q.Keeps {
		w.str(h)
	}
	w.i32s(q.CarryOut)
	return w.b
}

func decodeExecReq(b []byte) (execRequest, error) {
	r := rbuf{b: b}
	q := execRequest{Owner: r.str(), Rows: r.varint()}
	q.Prog = decodeProgram(&r)
	q.Carries = decodeCarryMap(&r)
	nk := r.sliceLen("keep list")
	for i := 0; i < nk && r.err == nil; i++ {
		q.Keeps = append(q.Keeps, r.str())
	}
	q.CarryOut = r.i32s()
	return q, r.err
}

func encodePartial(w *wbuf, p *core.SinkPartial) {
	w.bool(p.Used)
	w.varint(int64(p.R))
	w.varint(int64(p.C))
	w.f64s(p.Data)
	w.f64s(p.Keys)
	w.i64s(p.Counts)
	w.f64s(p.Folds)
}

func decodePartial(r *rbuf) *core.SinkPartial {
	return &core.SinkPartial{
		Used:   r.bool(),
		R:      int(r.varint()),
		C:      int(r.varint()),
		Data:   r.f64s(),
		Keys:   r.f64s(),
		Counts: r.i64s(),
		Folds:  r.f64s(),
	}
}

func encodeExecResp(q execResponse) []byte {
	var w wbuf
	w.uvarint(uint64(len(q.Partials)))
	for _, p := range q.Partials {
		encodePartial(&w, p)
	}
	order := make([]int32, 0, len(q.Carries))
	for idx := range q.Carries {
		order = append(order, idx)
	}
	sortInt32s(order)
	encodeCarryMap(&w, q.Carries, order)
	w.varint(q.Stats.Passes)
	w.varint(q.Stats.Parts)
	w.varint(q.Stats.Chunks)
	w.varint(q.Stats.BytesRead)
	w.varint(q.Stats.BytesWritten)
	w.varint(q.Stats.NodesExecuted)
	w.varint(int64(q.Stats.Wall))
	return w.b
}

func decodeExecResp(b []byte) (execResponse, error) {
	r := rbuf{b: b}
	var q execResponse
	np := r.sliceLen("partials")
	for i := 0; i < np && r.err == nil; i++ {
		q.Partials = append(q.Partials, decodePartial(&r))
	}
	q.Carries = decodeCarryMap(&r)
	q.Stats = core.MaterializeStats{
		Passes:        r.varint(),
		Parts:         r.varint(),
		Chunks:        r.varint(),
		BytesRead:     r.varint(),
		BytesWritten:  r.varint(),
		NodesExecuted: r.varint(),
		Wall:          time.Duration(r.varint()),
	}
	return q, r.err
}

func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
