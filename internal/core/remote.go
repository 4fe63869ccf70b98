package core

import (
	"context"

	"repro/internal/matrix"
)

// RemoteExecutor is the execution seam a sharded coordinator plugs into the
// engine. When set, the engine still runs its whole plan phase locally —
// result-cache serving, within-pass CSE unification, DAG construction,
// validation and compilation — and hands only the compiled program to the
// executor, which returns what a local execution would: a store per tall
// position and the combined raw reduction per sink. The publication phase
// (store attachment, result-cache inserts, duplicate-sink partial serving)
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
