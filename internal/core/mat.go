package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dense"
	"repro/internal/matrix"
)

// opKind identifies the GenOp a virtual matrix node represents. Ops here
// preserve the partition dimension (Figure 5 (a)–(f), (j)); aggregation-type
// GenOps whose output loses the partition dimension become Sink nodes.
type opKind int8

const (
	opLeaf  opKind = iota // materialized store
	opConst               // constant-valued virtual matrix (no I/O at all)
	opSapply
	opMapplyMM     // elementwise binary, both inputs tall with equal shape
	opMapplyScalar // elementwise binary against a scalar
	opMapplyRowVec // elementwise binary against a length-ncol vector (sweep over columns)
	opMapplyColVec // elementwise binary against an n×1 tall matrix broadcast across columns
	opInnerProd    // generalized A(n×p) ∘ B(p×m), B small and shared read-only
	opAggRow       // per-row aggregation → n×1 (Figure 5 (c))
	opGroupByCol   // group columns by label, agg within row → n×k (Figure 5 (d))
	opCumRow       // cumulative along each row → same shape (partition-local)
	opCumCol       // cumulative down the partition dimension (Figure 5 (j))
	opCols         // column-subset view
	opCbind        // column concatenation of two tall matrices
	opSetCols      // functional column assignment: a with cols replaced by b
)

func (k opKind) String() string {
	switch k {
	case opLeaf:
		return "leaf"
	case opConst:
		return "const"
	case opSapply:
		return "sapply"
	case opMapplyMM:
		return "mapply"
	case opMapplyScalar:
		return "mapply.scalar"
	case opMapplyRowVec:
		return "mapply.rowvec"
	case opMapplyColVec:
		return "mapply.colvec"
	case opInnerProd:
		return "inner.prod"
	case opAggRow:
		return "agg.row"
	case opGroupByCol:
		return "groupby.col"
	case opCumRow:
		return "cum.row"
	case opCumCol:
		return "cum.col"
	case opCols:
		return "cols"
	case opCbind:
		return "cbind"
	case opSetCols:
		return "setcols"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// argMode selects index-returning variants of agg.row (R's which.min /
// which.max, used by k-means to assign points to clusters).
type argMode int8

const (
	argNone argMode = iota
	argMin          // 0-based index of the row minimum
	argMax          // 0-based index of the row maximum
)

var matIDs atomic.Uint64

// Mat is a tall matrix node in a FlashR DAG: either a materialized leaf
// (backed by a Store) or a virtual matrix describing how to compute its
// partitions from its inputs. Mats are immutable once created; materializing
// sets store under mu.
type Mat struct {
	id   uint64
	nrow int64
	ncol int
	dt   matrix.DType

	kind opKind
	a, b *Mat

	un         *Unary
	bin        *Binary
	agg        *AggFunc
	arg        argMode
	scalar     float64
	scalarLeft bool
	vec        []float64    // opMapplyRowVec operand / opConst value in vec[0]
	vecLeft    bool         // vector (or scalar) is the left operand of bin
	small      *dense.Dense // opInnerProd right operand (p×m), shared read-only
	f1, f2     *Binary      // opInnerProd functions; nil f1 selects the BLAS path
	cols       []int        // opCols subset
	colLabels  []int        // opGroupByCol: label of each input column, in [0,k)
	groupK     int          // opGroupByCol: number of groups

	mu      sync.Mutex
	store   matrix.Store // non-nil once materialized
	cache   bool         // set.cache: materialize alongside the DAG's targets
	cacheEM bool         // cache on SSDs instead of memory
	freed   bool
	mutated bool   // data written in place: signature falls back to identity form
	ver     uint64 // content version, bumped per in-place mutation
}

// NRow returns the number of rows (the partition dimension).
func (m *Mat) NRow() int64 { return m.nrow }

// NCol returns the number of columns.
func (m *Mat) NCol() int { return m.ncol }

// DType returns the logical element type.
func (m *Mat) DType() matrix.DType { return m.dt }

// ID returns a process-unique node identifier (diagnostics).
func (m *Mat) ID() uint64 { return m.id }

// Materialized reports whether the node has physical data.
func (m *Mat) Materialized() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store != nil
}

// Store returns the backing store, or nil for a virtual matrix.
func (m *Mat) Store() matrix.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store
}

// SetCache marks the node to be saved (in memory, or on SSDs when em is
// true) when the DAG containing it is materialized — the paper's set.cache,
// used by iterative algorithms to avoid recomputation across iterations.
func (m *Mat) SetCache(em bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache = true
	m.cacheEM = em
}

// NoteMutated records an in-place write to the node's materialized data.
// The content version feeds the node's structural signature, so cached
// results built over the old contents can no longer match; callers go
// through Engine.NoteMutation, which also drops dependent cache entries.
func (m *Mat) NoteMutated() {
	m.mu.Lock()
	m.mutated = true
	m.ver++
	m.mu.Unlock()
}

func (m *Mat) isMutated() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mutated
}

func (m *Mat) contentVer() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ver
}

// attachStore installs a store on a still-virtual node (cache hits turning a
// subtree into a leaf); it reports false, leaving ownership with the caller,
// if the node is already materialized.
func (m *Mat) attachStore(st matrix.Store) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store != nil {
		return false
	}
	m.store = st
	return true
}

// swapStore replaces the backing store, returning the old one (store
// privatization and cache sharing).
func (m *Mat) swapStore(st matrix.Store) matrix.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.store
	m.store = st
	return old
}

// Free releases the backing store, if any.
func (m *Mat) Free() error {
	m.mu.Lock()
	st := m.store
	m.store = nil
	m.freed = true
	m.mu.Unlock()
	if st != nil {
		return st.Free()
	}
	return nil
}

func newMat(nrow int64, ncol int, dt matrix.DType, kind opKind) *Mat {
	return &Mat{id: matIDs.Add(1), nrow: nrow, ncol: ncol, dt: dt, kind: kind}
}

// NewLeaf wraps a materialized store as a DAG leaf.
func NewLeaf(st matrix.Store, dt matrix.DType) *Mat {
	m := newMat(st.NRow(), st.NCol(), dt, opLeaf)
	m.store = st
	return m
}

// NewConst creates a virtual constant matrix: every element equals v. It
// consumes no storage and no I/O (rep.int(1, n) in Figure 3 compiles to
// this).
func NewConst(nrow int64, ncol int, v float64) *Mat {
	m := newMat(nrow, ncol, matrix.F64, opConst)
	m.vec = []float64{v}
	return m
}

func checkTallShape(op string, a, b *Mat) {
	if a.nrow != b.nrow || a.ncol != b.ncol {
		panic(fmt.Sprintf("core: %s shape mismatch %dx%d vs %dx%d", op, a.nrow, a.ncol, b.nrow, b.ncol))
	}
}

// Sapply is the elementwise unary GenOp: C[i,j] = f(A[i,j]).
func Sapply(a *Mat, f *Unary) *Mat {
	m := newMat(a.nrow, a.ncol, matrix.F64, opSapply)
	m.a, m.un = a, f
	return m
}

// Mapply is the elementwise binary GenOp on two equally-shaped tall
// matrices: C[i,j] = f(A[i,j], B[i,j]).
func Mapply(a, b *Mat, f *Binary) *Mat {
	checkTallShape("mapply", a, b)
	m := newMat(a.nrow, a.ncol, matrix.F64, opMapplyMM)
	m.a, m.b, m.bin = a, b, f
	return m
}

// MapplyScalar applies f between every element of a and a scalar s;
// scalarLeft selects f(s, x) instead of f(x, s).
func MapplyScalar(a *Mat, s float64, f *Binary, scalarLeft bool) *Mat {
	m := newMat(a.nrow, a.ncol, matrix.F64, opMapplyScalar)
	m.a, m.scalar, m.bin, m.scalarLeft = a, s, f, scalarLeft
	return m
}

// MapplyRowVec applies f between every row of a and a length-ncol vector v
// (R's sweep(A, 2, v, f)); vecLeft selects f(v[j], x).
func MapplyRowVec(a *Mat, v []float64, f *Binary, vecLeft bool) *Mat {
	if len(v) != a.ncol {
		panic(fmt.Sprintf("core: mapply.rowvec vector %d != ncol %d", len(v), a.ncol))
	}
	m := newMat(a.nrow, a.ncol, matrix.F64, opMapplyRowVec)
	m.a, m.bin, m.vecLeft = a, f, vecLeft
	m.vec = append([]float64(nil), v...)
	return m
}

// MapplyColVec applies f between every column of a and the n×1 tall matrix
// v, broadcast across columns (R's sweep(A, 1, v, f) with an out-of-core
// sweep vector); vecLeft selects f(v[i], x).
func MapplyColVec(a, v *Mat, f *Binary, vecLeft bool) *Mat {
	if v.ncol != 1 || v.nrow != a.nrow {
		panic(fmt.Sprintf("core: mapply.colvec operand is %dx%d, want %dx1", v.nrow, v.ncol, a.nrow))
	}
	m := newMat(a.nrow, a.ncol, matrix.F64, opMapplyColVec)
	m.a, m.b, m.bin, m.vecLeft = a, v, f, vecLeft
	return m
}

// InnerProd is the generalized matrix multiplication GenOp with a small,
// in-memory right operand B (p×m): t = f1(A[i,k], B[k,j]); C[i,j] = f2
// accumulated over k. Passing f1 == nil selects the BLAS kernel (the Table 2
// float path); then f2 is ignored.
func InnerProd(a *Mat, b *dense.Dense, f1, f2 *Binary) *Mat {
	if b.R != a.ncol {
		panic(fmt.Sprintf("core: inner.prod %dx%d by %dx%d", a.nrow, a.ncol, b.R, b.C))
	}
	m := newMat(a.nrow, b.C, matrix.F64, opInnerProd)
	m.a, m.small, m.f1, m.f2 = a, b, f1, f2
	return m
}

// AggRow is the per-row aggregation GenOp: C[i] = f over row i, producing an
// n×1 tall matrix.
func AggRow(a *Mat, f *AggFunc) *Mat {
	m := newMat(a.nrow, 1, matrix.F64, opAggRow)
	m.a, m.agg = a, f
	return m
}

// WhichMinRow returns the 0-based index of each row's minimum as an n×1
// matrix (agg.row with "which.min" in Figure 3).
func WhichMinRow(a *Mat) *Mat {
	m := newMat(a.nrow, 1, matrix.I64, opAggRow)
	m.a, m.arg = a, argMin
	return m
}

// WhichMaxRow returns the 0-based index of each row's maximum as an n×1
// matrix.
func WhichMaxRow(a *Mat) *Mat {
	m := newMat(a.nrow, 1, matrix.I64, opAggRow)
	m.a, m.arg = a, argMax
	return m
}

// GroupByCol groups the columns of a by labels (labels[j] in [0,k)) and
// aggregates within each row and group: C[i,g] = f over {A[i,j] :
// labels[j]=g}. The output is n×k and keeps the partition dimension
// (groupby.col of Table 1 on a tall matrix).
func GroupByCol(a *Mat, labels []int, k int, f *AggFunc) *Mat {
	if len(labels) != a.ncol {
		panic(fmt.Sprintf("core: groupby.col labels %d != ncol %d", len(labels), a.ncol))
	}
	for _, l := range labels {
		if l < 0 || l >= k {
			panic(fmt.Sprintf("core: groupby.col label %d out of range [0,%d)", l, k))
		}
	}
	m := newMat(a.nrow, k, matrix.F64, opGroupByCol)
	m.a, m.agg, m.groupK = a, f, k
	m.colLabels = append([]int(nil), labels...)
	return m
}

// CumRow computes cumulative aggregation along each row: C[i,j] =
// f(A[i,j], C[i,j-1]). Partition-local, so it parallelizes freely.
func CumRow(a *Mat, f *AggFunc) *Mat {
	m := newMat(a.nrow, a.ncol, matrix.F64, opCumRow)
	m.a, m.agg = a, f
	return m
}

// CumCol computes cumulative aggregation down each column: C[i,j] =
// f(A[i,j], C[i-1,j]). This crosses partitions; the engine evaluates it in a
// single scan by propagating per-partition carries (§3.3 (j)).
func CumCol(a *Mat, f *AggFunc) *Mat {
	m := newMat(a.nrow, a.ncol, matrix.F64, opCumCol)
	m.a, m.agg = a, f
	return m
}

// Cbind2 concatenates two tall matrices with the same partition dimension
// column-wise: C = [A | B]. Like all non-sink GenOps it is virtual.
func Cbind2(a, b *Mat) *Mat {
	if a.nrow != b.nrow {
		panic(fmt.Sprintf("core: cbind row mismatch %d vs %d", a.nrow, b.nrow))
	}
	m := newMat(a.nrow, a.ncol+b.ncol, a.dt, opCbind)
	m.a, m.b = a, b
	return m
}

// SetCols is the functional form of R's `A[, cols] <- B`: the result equals
// a with the given columns replaced by the columns of b (n×len(cols)). Per
// §3.1 of the paper, "writing to a matrix outputs a virtual matrix that
// constructs the modified matrix on the fly" — no copy of a is made.
func SetCols(a, b *Mat, cols []int) *Mat {
	if b.nrow != a.nrow || b.ncol != len(cols) {
		panic(fmt.Sprintf("core: setcols value is %dx%d, want %dx%d", b.nrow, b.ncol, a.nrow, len(cols)))
	}
	for _, c := range cols {
		if c < 0 || c >= a.ncol {
			panic(fmt.Sprintf("core: setcols column %d out of range [0,%d)", c, a.ncol))
		}
	}
	m := newMat(a.nrow, a.ncol, a.dt, opSetCols)
	m.a, m.b = a, b
	m.cols = append([]int(nil), cols...)
	return m
}

// Cols returns a virtual column-subset view of a.
func Cols(a *Mat, cols []int) *Mat {
	for _, c := range cols {
		if c < 0 || c >= a.ncol {
			panic(fmt.Sprintf("core: column %d out of range [0,%d)", c, a.ncol))
		}
	}
	m := newMat(a.nrow, len(cols), a.dt, opCols)
	m.a = a
	m.cols = append([]int(nil), cols...)
	return m
}

// SinkKind identifies an aggregation GenOp whose output drops the partition
// dimension (a sink matrix, §3.4).
type SinkKind int8

const (
	// SinkAgg is agg(A, f) → scalar.
	SinkAgg SinkKind = iota
	// SinkAggCol is agg.col(A, f) → 1×p (aggregate each column over all
	// rows).
	SinkAggCol
	// SinkGroupByRow is groupby.row(A, B, f) → k×p: rows grouped by the
	// n×1 label matrix B.
	SinkGroupByRow
	// SinkCrossProd is t(A) %*% B (or generalized with f1/f2) → pa×pb.
	SinkCrossProd
	// SinkTable is table(A)/unique(A): per-value counts; its output size
	// depends on the data, so reaching it triggers DAG materialization.
	SinkTable
	// SinkGroupByVal is the general groupby(A, f) of Table 1: elements are
	// grouped by their value and folded with f per group. table() is the
	// "count" instance. Output size is data-dependent (immediate
	// materialization, like SinkTable).
	SinkGroupByVal
)

func (k SinkKind) String() string {
	switch k {
	case SinkAgg:
		return "agg"
	case SinkAggCol:
		return "agg.col"
	case SinkGroupByRow:
		return "groupby.row"
	case SinkCrossProd:
		return "crossprod"
	case SinkTable:
		return "table"
	case SinkGroupByVal:
		return "groupby"
	default:
		return fmt.Sprintf("sink(%d)", int(k))
	}
}

// Sink is an aggregation-GenOp node. Its result is small and is stored in
// memory once materialized.
type Sink struct {
	id   uint64
	kind SinkKind
	a, b *Mat
	agg  *AggFunc
	f1   *Binary // generalized crossprod; nil selects BLAS
	f2   *Binary
	k    int // group count for groupby.row

	rows, cols int

	mu   sync.Mutex
	part *SinkPartial // the published result; nil until then
}

// Kind returns the sink's GenOp kind.
func (s *Sink) Kind() SinkKind { return s.kind }

// Input returns the tall matrix the sink aggregates over.
func (s *Sink) Input() *Mat { return s.a }

// Shape returns the result dimensions fixed at construction (0×0 for
// SinkTable, whose size is data-dependent).
func (s *Sink) Shape() (rows, cols int) { return s.rows, s.cols }

var sinkIDs atomic.Uint64

func newSink(kind SinkKind, rows, cols int, a *Mat, f *AggFunc) *Sink {
	return &Sink{id: sinkIDs.Add(1), kind: kind, rows: rows, cols: cols, a: a, agg: f}
}

// Agg builds the full-matrix aggregation sink: a scalar f-fold over every
// element.
func Agg(a *Mat, f *AggFunc) *Sink { return newSink(SinkAgg, 1, 1, a, f) }

// AggCol builds the per-column aggregation sink (1×p): C[j] = f over column
// j across all rows.
func AggCol(a *Mat, f *AggFunc) *Sink { return newSink(SinkAggCol, 1, a.ncol, a, f) }

// GroupByRow builds the row-grouping sink (k×p): rows of a are grouped by
// the n×1 label matrix (values in [0,k)) and aggregated per column.
func GroupByRow(a, labels *Mat, k int, f *AggFunc) *Sink {
	if labels.ncol != 1 || labels.nrow != a.nrow {
		panic(fmt.Sprintf("core: groupby.row labels are %dx%d, want %dx1", labels.nrow, labels.ncol, a.nrow))
	}
	s := newSink(SinkGroupByRow, k, a.ncol, a, f)
	s.b, s.k = labels, k
	return s
}

// CrossProd builds the t(A)%*%B sink (pa×pb). A and B are tall with the same
// row count; f1 == nil selects the BLAS kernel, otherwise the generalized
// inner product with f1/f2 (the Table 2 integer path).
func CrossProd(a, b *Mat, f1, f2 *Binary) *Sink {
	if a.nrow != b.nrow {
		panic(fmt.Sprintf("core: crossprod row mismatch %d vs %d", a.nrow, b.nrow))
	}
	s := newSink(SinkCrossProd, a.ncol, b.ncol, a, nil)
	s.b, s.f1, s.f2 = b, f1, f2
	return s
}

// Table builds the value-histogram sink (R's table/unique). Its output size
// depends on the data, so the paper materializes it immediately; the public
// API does the same.
func Table(a *Mat) *Sink { return newSink(SinkTable, 0, 0, a, nil) }

// GroupByVal builds the generalized element groupby sink: elements grouped
// by value, each group folded with f (groupby(A, f) in Table 1).
func GroupByVal(a *Mat, f *AggFunc) *Sink { return newSink(SinkGroupByVal, 0, 0, a, f) }
