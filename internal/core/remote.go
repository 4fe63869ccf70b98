package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dense"
	"repro/internal/matrix"
)

// RemoteExecutor is the execution seam a sharded coordinator plugs into the
// engine. When set, the engine still runs its whole plan phase locally —
// result-cache serving, within-pass CSE unification, DAG construction,
// validation and compilation — and hands only the compiled program to the
// executor, which returns what a local execution would: a store per tall
// position and the combined raw reduction per sink. The publication phase
// (store attachment, result-cache inserts, duplicate-sink payload serving)
// then proceeds exactly as for local execution.
type RemoteExecutor interface {
	RunDAG(ctx context.Context, d *RemoteDAG, ms *MaterializeStats) (*ProgramResult, error)
}

// RemoteDAG is one materialization's compiled pass as handed to a
// RemoteExecutor: the program, the matrix behind each of its leaf
// instructions, and the shared partition dimension.
type RemoteDAG struct {
	NRow int64
	Prog *Program
	// Leaves[i] is the matrix leaf instruction i reads (nil for every other
	// instruction); the executor maps each to a worker-resident handle by
	// setting Prog.Nodes[i].Leaf.
	Leaves []*Mat
	// Owner labels the session the pass runs for (PassOptions.Owner).
	Owner string
}

// SetRemoteExecutor installs (or, with nil, removes) the engine's remote
// execution seam. Call before submitting passes; the engine does not
// synchronize the swap against in-flight materializations.
func (e *Engine) SetRemoteExecutor(r RemoteExecutor) { e.remote = r }

// ContentVersion exposes the node's in-place-mutation version for leaf
// identity across a transport: a (ID, ContentVersion) pair names one
// immutable snapshot of a materialized matrix.
func (m *Mat) ContentVersion() uint64 { return m.contentVer() }

// UnwrapStore strips the engine's cache-sharing wrapper from a materialized
// store, exposing the backend store (a sharded coordinator uses this to
// recognize leaves whose data already lives on its workers).
func UnwrapStore(st matrix.Store) matrix.Store { return unwrapStore(st) }

// SinkPartial is one worker's raw (pre-publish-transform) sink reduction in
// wire-friendly form: a dense payload for the fixed-shape kinds, key/count or
// key/fold pairs for the data-dependent kinds. Partials combine across
// workers with the sink's own merge (ProgramSink.Combine) — the cross-shard
// form of the per-thread partial merging of §3.3 (g,h,i).
type SinkPartial struct {
	Used   bool
	R, C   int
	Data   []float64
	Keys   []float64
	Counts []int64
	Folds  []float64
}

// Combine merges per-shard raw partials in shard order with exactly the
// merge the executor applies to per-task partials: AggFunc.Combine for the
// fold kinds, elementwise addition for the BLAS crossprod (per-shard Syrk
// partials arrive already symmetrized, and symmetrization commutes with
// addition), f2 for the generalized crossprod, key-wise count addition for
// table, and key-wise Combine for groupby-by-value. Unused partials
// (zero-row shards) are skipped.
func (s *ProgramSink) Combine(parts []*SinkPartial) (*SinkPartial, error) {
	acc := newSinkAcc(s)
	for wi, p := range parts {
		if p == nil || !p.Used {
			continue
		}
		o := &sinkAcc{s: s, used: true}
		switch SinkKind(s.Kind) {
		case SinkAgg:
			if len(p.Data) != 1 {
				return nil, fmt.Errorf("core: shard %d agg partial has %d values, want 1", wi, len(p.Data))
			}
			o.acc = p.Data[0]
		case SinkAggCol, SinkGroupByRow, SinkCrossProd:
			if len(p.Data) != len(acc.vec) {
				return nil, fmt.Errorf("core: shard %d %s partial has %d values, want %d", wi, SinkKind(s.Kind), len(p.Data), len(acc.vec))
			}
			o.vec = p.Data
		case SinkTable:
			if len(p.Keys) != len(p.Counts) {
				return nil, fmt.Errorf("core: shard %d table partial keys/counts mismatch", wi)
			}
			o.table = make(map[float64]int64, len(p.Keys))
			for i, k := range p.Keys {
				o.table[k] += p.Counts[i]
			}
		case SinkGroupByVal:
			if len(p.Keys) != len(p.Folds) {
				return nil, fmt.Errorf("core: shard %d groupby partial keys/folds mismatch", wi)
			}
			o.byVal = make(map[float64]float64, len(p.Keys))
			for i, k := range p.Keys {
				o.byVal[k] = p.Folds[i]
			}
		}
		acc.merge(o)
	}
	return acc.partial(), nil
}

// PublishRaw installs a combined raw partial as this sink's result. The sink
// takes ownership of p. Crossprod partials are already symmetric (workers
// symmetrize Syrk partials before snapshotting), so no extra symmetrization
// happens here.
func (s *Sink) PublishRaw(p *SinkPartial) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.kind {
	case SinkAgg:
		s.result = dense.FromSlice(1, 1, p.Data)
	case SinkAggCol:
		s.result = dense.FromSlice(1, s.cols, p.Data)
	case SinkGroupByRow:
		s.result = dense.FromSlice(s.k, s.cols, p.Data)
	case SinkCrossProd:
		s.result = dense.FromSlice(s.rows, s.cols, p.Data)
	case SinkTable:
		s.keys, s.counts = p.Keys, p.Counts
		s.result = dense.FromSlice(1, len(p.Keys), append([]float64(nil), p.Keys...))
	case SinkGroupByVal:
		s.keys, s.folds = p.Keys, p.Folds
		s.result = dense.FromSlice(1, len(p.Keys), append([]float64(nil), p.Folds...))
	}
	s.done = true
}

func sortedKeys(m map[float64]int64) []float64 {
	keys := make([]float64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return keys
}

func sortedKeysF(m map[float64]float64) []float64 {
	keys := make([]float64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return keys
}
