package repl

import "math"

// Admission estimation. FlashR's premise (§3.1) is that every matrix shape
// is known the moment the expression is built — before any data moves. The
// serving layer exploits that: a program's result and working-set bytes can
// be bounded before it runs, so over-budget programs are rejected with a
// typed error before the engine runs a single materialization pass.

// Estimate bounds a program's byte footprint.
type Estimate struct {
	// ResultBytes is the total size of printed matrix-valued results with
	// more than one element (those the v2 surface pins behind result
	// handles). Scalars, strings and 1×1 matrices render as text and count
	// zero.
	ResultBytes int64
	// WorkBytes sums the logical size of every distinct matrix node the
	// program builds — an upper bound on the working set (lazy fusion
	// streams most intermediates, so the true footprint is usually far
	// smaller).
	WorkBytes int64
}

// EstimateProgram bounds the byte footprint of a multi-statement program by
// evaluating it with the real interpreter on a plan-only session
// (flashr.Session.PlanOnly): a scratch environment holds the live bindings
// rebound to that session, so the program builds exactly the DAG nodes a
// real evaluation would, with creation calls bound to zero-storage leaves,
// while no pass runs, no data is read and neither the bindings nor the
// session's pending batch change. CSE and the result cache can only skip
// some of the counted nodes, so the count is an upper bound.
//
// The second result is false — no estimate — when a statement fails to
// parse or evaluate: a shape error, an unbound name or unknown function, an
// operation that needs data (head, element access, as.matrix, table,
// unique, rbind of tall matrices, a reduction used as a numeric argument
// or index, load.dense, save.csv), or more in-memory work on small
// matrices than the plan session simulates. The estimate then covers the
// statements before the failing one and is a lower bound; past the
// in-memory cap its WorkBytes is math.MaxInt64. Byte counts saturate at
// math.MaxInt64.
func (e *Env) EstimateProgram(stmts []string) (Estimate, bool) {
	plan, work := e.S.PlanOnly()
	scratch := &Env{S: plan, vars: make(map[string]Value, len(e.vars))}
	for name, v := range e.vars {
		if v.Mat != nil {
			v.Mat = v.Mat.Rebind(plan)
		}
		scratch.vars[name] = v
	}
	var est Estimate
	for _, src := range stmts {
		v, printed, err := scratch.EvalStmt(src)
		if err != nil {
			est.WorkBytes = work()
			return est, false
		}
		if !printed || v.Mat == nil {
			continue
		}
		if r, c := v.Mat.Dim(); r > 0 && c > 0 && (r > 1 || c > 1) {
			if r > (math.MaxInt64-est.ResultBytes)/8/c {
				est.ResultBytes = math.MaxInt64
			} else {
				est.ResultBytes += 8 * r * c
			}
		}
	}
	est.WorkBytes = work()
	return est, true
}
