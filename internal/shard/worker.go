package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Worker owns one shard's engine and its resident matrices: leaves the
// coordinator pushed by value, leaves it delegated by reference, and tall
// outputs kept for later passes. Matrices are addressed by coordinator-chosen
// string handles; re-registering a handle frees the previous occupant, so
// retried RPCs stay idempotent.
//
// A worker plans nothing: it executes the program the coordinator compiled
// (CSE-unified, sinks as raw partials) through its engine's executor, below
// the planner.
type Worker struct {
	eng *core.Engine

	// boot is a random nonzero id minted once per Worker. A restarted
	// process mints a new one, so fenced requests carrying the old boot are
	// rejected with EpochError instead of executing against empty state.
	boot uint64

	fenced    atomic.Int64
	adoptions atomic.Int64

	mu    sync.Mutex
	epoch uint64 // session epoch adopted at hello; 0 = no session yet
	mats  map[string]*core.Mat
}

// NewWorker builds a worker around a fresh engine with the given
// configuration.
func NewWorker(cfg core.Config) (*Worker, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Worker{eng: eng, boot: rand.Uint64() | 1, mats: make(map[string]*core.Mat)}, nil
}

// Engine exposes the worker's engine (metrics registration, tests).
func (w *Worker) Engine() *core.Engine { return w.eng }

// Boot returns the worker's boot id (log lines, tests).
func (w *Worker) Boot() uint64 { return w.boot }

// FenceRejects returns how many requests this worker rejected on the
// (epoch, boot) fence.
func (w *Worker) FenceRejects() int64 { return w.fenced.Load() }

// Adoptions returns how many times a hello installed a new session epoch
// (wiping any prior session's resident matrices).
func (w *Worker) Adoptions() int64 { return w.adoptions.Load() }

// Handles returns the sorted registered handle names (diagnostics, tests).
func (w *Worker) Handles() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	hs := make([]string, 0, len(w.mats))
	for h := range w.mats {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	return hs
}

// hello installs the coordinator's session epoch. A different epoch than the
// current one means a new (or resumed-elsewhere) session: any prior session's
// resident matrices are freed and the new epoch adopted. The same epoch means
// the coordinator is reconnecting to a live worker — state is kept, and the
// reported Kept count lets it skip replay entirely.
func (w *Worker) hello(q helloReq) ([]byte, error) {
	if q.Version != protocolVersion {
		return nil, fmt.Errorf("shard: protocol version %d, worker speaks %d", q.Version, protocolVersion)
	}
	if q.PartRows != w.eng.PartRows() {
		return nil, fmt.Errorf("shard: coordinator part-rows %d != worker part-rows %d", q.PartRows, w.eng.PartRows())
	}
	if q.Epoch == 0 {
		return nil, fmt.Errorf("shard: hello with zero epoch")
	}
	w.mu.Lock()
	var orphans map[string]*core.Mat
	if q.Epoch != w.epoch {
		orphans = w.mats
		w.mats = make(map[string]*core.Mat)
		w.epoch = q.Epoch
		w.adoptions.Add(1)
	}
	kept := len(w.mats)
	w.mu.Unlock()
	for _, m := range orphans {
		m.Free()
	}
	return encodeHelloResp(helloResp{
		Version:  protocolVersion,
		PartRows: w.eng.PartRows(),
		Boot:     w.boot,
		Kept:     int64(kept),
	}), nil
}

// checkFence validates a non-hello request's (epoch, boot) prefix against the
// worker's session state and returns the request body proper.
func (w *Worker) checkFence(op uint8, body []byte) ([]byte, error) {
	epoch, boot, rest, err := splitFence(body)
	if err != nil {
		return nil, err
	}
	if boot != w.boot {
		w.fenced.Add(1)
		return nil, &EpochError{Op: op, Msg: fmt.Sprintf("request for boot %x, worker boot is %x (worker restarted)", boot, w.boot)}
	}
	w.mu.Lock()
	cur := w.epoch
	w.mu.Unlock()
	if epoch == 0 || epoch != cur {
		w.fenced.Add(1)
		return nil, &EpochError{Op: op, Msg: fmt.Sprintf("request epoch %x, worker session epoch is %x", epoch, cur)}
	}
	return rest, nil
}

// Handle dispatches one RPC: decode, execute, encode. Both transports call
// it — the loopback directly, the TCP server per frame — so every code path
// exercises the byte codec. Errors are returned (and wired as status-1
// frames), never panics: the exec decoder resolves every program, rejecting
// any the executor could not run, and exec checks each leaf against the
// resident matrix it names.
func (w *Worker) Handle(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	if op == opHello {
		q, err := decodeHelloReq(body)
		if err != nil {
			return nil, err
		}
		return w.hello(q)
	}
	body, ferr := w.checkFence(op, body)
	if ferr != nil {
		return nil, ferr
	}
	switch op {
	case opPushPart:
		q, err := decodePartReq(body)
		if err != nil {
			return nil, err
		}
		return nil, w.pushPart(q)
	case opExec:
		q, err := decodeExecReq(body)
		if err != nil {
			return nil, err
		}
		resp, err := w.exec(ctx, q)
		if err != nil {
			return nil, err
		}
		return encodeExecResp(resp), nil
	case opFetchPart:
		q, err := decodeFetchReq(body)
		if err != nil {
			return nil, err
		}
		data, err := w.fetchPart(q)
		if err != nil {
			return nil, err
		}
		var wr wbuf
		wr.f64s(data)
		return wr.b, nil
	case opWritePart:
		q, err := decodePartReq(body)
		if err != nil {
			return nil, err
		}
		return nil, w.writePart(q)
	case opFreeMat:
		r := rbuf{b: body}
		handle := r.str()
		if r.err != nil {
			return nil, r.err
		}
		w.freeMat(handle)
		return nil, nil
	default:
		return nil, fmt.Errorf("shard: unknown op %d", op)
	}
}

func (w *Worker) lookup(handle string) (*core.Mat, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m, ok := w.mats[handle]
	if !ok {
		return nil, fmt.Errorf("shard: no matrix %q on this worker", handle)
	}
	return m, nil
}

// pushPart stores one partition of a coordinator-pushed leaf, creating the
// worker-resident matrix on first touch. Overwriting an already-pushed
// partition with the same bytes is the retry case and is harmless.
func (w *Worker) pushPart(q partReq) error {
	dt, err := core.LeafDType(q.DT)
	if err != nil {
		return err
	}
	w.mu.Lock()
	m, ok := w.mats[q.Handle]
	if !ok {
		st, serr := w.eng.NewStore(q.NRow, q.NCol)
		if serr != nil {
			w.mu.Unlock()
			return serr
		}
		m = core.NewLeaf(st, dt)
		w.mats[q.Handle] = m
	}
	w.mu.Unlock()
	if m.NRow() != q.NRow || m.NCol() != q.NCol || m.DType() != dt {
		return fmt.Errorf("shard: push %q: existing matrix is %dx%d dtype %d, push says %dx%d dtype %d",
			q.Handle, m.NRow(), m.NCol(), m.DType(), q.NRow, q.NCol, dt)
	}
	st := m.Store()
	if err := matrix.CheckPart(st, q.Part); err != nil {
		return err
	}
	rows := matrix.PartRowsOf(q.NRow, st.PartRows(), q.Part)
	if len(q.Data) != rows*q.NCol {
		return fmt.Errorf("shard: push %q part %d: %d values, want %d", q.Handle, q.Part, len(q.Data), rows*q.NCol)
	}
	return st.WritePart(q.Part, q.Data)
}

// exec runs one shard pass: bind every leaf instruction to the resident
// matrix its handle names (ExecProgram checks the store's shape, this the
// matrix's dtype), run the decoded program, register kept outputs under
// their handles, and return every sink's raw partial and the requested exit
// carries.
func (w *Worker) exec(ctx context.Context, q execRequest) (execResponse, error) {
	var resp execResponse
	p := q.Prog
	leaves := make([]matrix.Store, len(p.Nodes))
	for _, i := range p.Leaves() {
		n := &p.Nodes[i]
		m, err := w.lookup(n.Leaf)
		if err != nil {
			return resp, err
		}
		if uint8(m.DType()) != n.DT {
			return resp, fmt.Errorf("shard: leaf %q has dtype %d, program wants %d", n.Leaf, m.DType(), n.DT)
		}
		leaves[i] = m.Store()
	}
	res, ms, err := w.eng.ExecProgram(ctx, p, q.Rows, leaves, q.Carries, core.PassOptions{Owner: q.Owner})
	if err != nil {
		return resp, err
	}
	for t, st := range res.Talls {
		if t < len(q.Keeps) && q.Keeps[t] != "" {
			dt, _ := core.LeafDType(p.Nodes[p.Talls[t]].DT)
			w.register(q.Keeps[t], core.NewLeaf(st, dt))
		} else {
			st.Free()
		}
	}
	if len(q.CarryOut) > 0 {
		resp.Carries = make(map[int32][]float64, len(q.CarryOut))
		for _, ci := range q.CarryOut {
			c, ok := res.Carries[ci]
			if !ok {
				return resp, fmt.Errorf("shard: exec carry-out %d is not an executed cum.col", ci)
			}
			resp.Carries[ci] = c
		}
	}
	// A final keyed partial repeats its keys (table) or folds (groupby) in
	// Data. The coordinator merges Keys with Counts or Folds and rebuilds
	// Data itself, so Data does not ship.
	for j, part := range res.Partials {
		if k := core.SinkKind(p.Sinks[j].Kind); k == core.SinkTable || k == core.SinkGroupByVal {
			part.Data = nil
		}
	}
	resp.Partials = res.Partials
	resp.Stats = ms
	return resp, nil
}

// register installs a materialized output under a keep handle, freeing any
// previous occupant (the retried-exec case re-registers the same handle).
func (w *Worker) register(handle string, m *core.Mat) {
	w.mu.Lock()
	old := w.mats[handle]
	w.mats[handle] = m
	w.mu.Unlock()
	if old != nil && old != m {
		old.Free()
	}
}

func (w *Worker) fetchPart(q fetchReq) ([]float64, error) {
	m, err := w.lookup(q.Handle)
	if err != nil {
		return nil, err
	}
	st := m.Store()
	if err := matrix.CheckPart(st, q.Part); err != nil {
		return nil, err
	}
	rows := matrix.PartRowsOf(m.NRow(), st.PartRows(), q.Part)
	buf := make([]float64, rows*m.NCol())
	if err := st.ReadPart(q.Part, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writePart overwrites one partition of an existing worker matrix.
func (w *Worker) writePart(q partReq) error {
	m, err := w.lookup(q.Handle)
	if err != nil {
		return err
	}
	st := m.Store()
	if err := matrix.CheckPart(st, q.Part); err != nil {
		return err
	}
	rows := matrix.PartRowsOf(m.NRow(), st.PartRows(), q.Part)
	if len(q.Data) != rows*m.NCol() {
		return fmt.Errorf("shard: write %q part %d: %d values, want %d", q.Handle, q.Part, len(q.Data), rows*m.NCol())
	}
	return st.WritePart(q.Part, q.Data)
}

// freeMat releases a handle; missing handles are fine (idempotent retries,
// best-effort cleanup paths).
func (w *Worker) freeMat(handle string) {
	w.mu.Lock()
	m := w.mats[handle]
	delete(w.mats, handle)
	w.mu.Unlock()
	if m != nil {
		m.Free()
	}
}

// Close frees every resident matrix.
func (w *Worker) Close() error {
	w.mu.Lock()
	mats := w.mats
	w.mats = make(map[string]*core.Mat)
	w.mu.Unlock()
	for _, m := range mats {
		m.Free()
	}
	return nil
}
