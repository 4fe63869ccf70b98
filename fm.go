package flashr

import (
	"context"

	"repro/internal/core"
	"repro/internal/dense"
)

// FM is a FlashR matrix. It is one of:
//
//   - a tall matrix flowing through the partitioned engine, possibly virtual
//     (an unevaluated GenOp DAG node) and possibly a zero-copy transposed
//     view;
//   - a small in-memory matrix — the result of a sink GenOp (aggregations,
//     Gramians, group-bys) or user-provided small data — on which operations
//     evaluate eagerly, mirroring the paper's treatment of sink matrices;
//   - a pending sink: a lazily-evaluated aggregation whose small result has
//     not been forced yet.
//
// Vectors are one-column matrices, as in the paper.
type FM struct {
	s     *Session
	big   *core.Mat
	small *dense.Dense
	sink  *core.Sink
	trans bool // transposed view (big matrices only; smalls transpose eagerly)
}

func (s *Session) bigFM(m *core.Mat) *FM {
	s.planNode(m, m.NRow(), int64(m.NCol()))
	return &FM{s: s, big: m}
}

func (s *Session) smallFM(d *dense.Dense) *FM {
	s.planNode(d, int64(d.R), int64(d.C))
	return &FM{s: s, small: d}
}

func (s *Session) sinkFM(k *core.Sink) *FM {
	s.deferSink(k)
	if r, c := k.Shape(); r != 1 || c != 1 { // 1×1 sinks render as text
		s.planNode(k, int64(r), int64(c))
	}
	return &FM{s: s, sink: k}
}

// Rebind returns a copy of x bound to session s, which must share x's
// engine. Operations on the copy build their nodes on s, so binding a live
// matrix to a plan-only session prices a program over it without touching
// x or x's session.
func (x *FM) Rebind(s *Session) *FM {
	out := *x
	out.s = s
	return &out
}

// isBig reports whether the matrix lives in the partitioned engine.
func (x *FM) isBig() bool { return x.big != nil }

// Session returns the session the matrix belongs to.
func (x *FM) Session() *Session { return x.s }

// resolveSmall forces a pending sink into its dense result; it leaves big
// matrices untouched. On a plan-only session every read of a small operand
// is charged to the session's in-memory work bound.
func (x *FM) resolveSmall() (*dense.Dense, error) {
	if x.big == nil {
		if err := x.s.planCharge(x.dims()); err != nil {
			return nil, err
		}
	}
	if x.small != nil {
		return x.small, nil
	}
	if x.sink != nil {
		d, err := x.s.forceSink(x.sink)
		if err != nil {
			return nil, err
		}
		if x.trans {
			d = d.T()
		}
		x.small = d
		x.sink = nil
		x.trans = false
		return d, nil
	}
	return nil, errf("resolve", shapesOf(x), "big matrix where small expected")
}

// NRow returns the number of rows.
func (x *FM) NRow() int64 {
	r, _ := x.dims()
	return r
}

// NCol returns the number of columns.
func (x *FM) NCol() int64 {
	_, c := x.dims()
	return c
}

func (x *FM) dims() (int64, int64) {
	var r, c int64
	switch {
	case x.big != nil:
		r, c = x.big.NRow(), int64(x.big.NCol())
	case x.small != nil:
		r, c = int64(x.small.R), int64(x.small.C)
	case x.sink != nil:
		rr, cc := x.sink.Shape()
		r, c = int64(rr), int64(cc)
	}
	if x.trans {
		r, c = c, r
	}
	return r, c
}

// Dim returns (rows, cols), R's dim().
func (x *FM) Dim() (int64, int64) { return x.dims() }

// Length returns the number of elements, R's length().
func (x *FM) Length() int64 {
	r, c := x.dims()
	return r * c
}

// IsVirtual reports whether the matrix is an unevaluated virtual matrix.
func (x *FM) IsVirtual() bool {
	if x.big != nil {
		return !x.big.Materialized()
	}
	return x.sink != nil && !x.sink.Done()
}

// T returns the transpose. For big matrices this is a zero-copy view (§3.1:
// "transpose of a matrix only needs to change data access"); small matrices
// transpose eagerly.
func (x *FM) T() *FM {
	if x.small != nil {
		if err := x.s.planCharge(x.dims()); err != nil {
			// An exhausted plan-only session: keep the shape, skip the
			// copy. The next op that reads the result fails its own charge.
			return x.s.smallFM(&dense.Dense{R: x.small.C, C: x.small.R})
		}
		return x.s.smallFM(x.small.T())
	}
	out := *x
	out.trans = !x.trans
	return &out
}

// MaterializeCtx forces evaluation of the matrix (R's materialize in Table
// 3). Pending sinks sharing the partition dimension materialize in the same
// pass, which runs under ctx: a cancelled ctx aborts it (including while the
// pass waits for admission on a busy engine) with ctx.Err().
func (x *FM) MaterializeCtx(ctx context.Context) error {
	if x.s.plan != nil {
		return nil
	}
	if x.big != nil {
		if x.big.Materialized() {
			return nil
		}
		return x.s.flushCtx(ctx, x.big)
	}
	_, err := x.resolveSmall()
	return err
}

// SetCache marks a virtual matrix to be saved (in memory, or on SSDs when
// em is true) when its DAG materializes — the paper's set.cache.
func (x *FM) SetCache(em bool) *FM {
	if x.big != nil && x.s.plan == nil {
		x.big.SetCache(em)
	}
	return x
}

// Free releases the matrix's backing storage.
func (x *FM) Free() error {
	if x.s.plan != nil {
		return ErrPlanOnly
	}
	if x.big != nil {
		return x.big.Free()
	}
	x.small = nil
	return nil
}

// AsDense materializes the matrix and gathers it into a dense in-memory
// matrix (R's as.matrix).
func (x *FM) AsDense() (*dense.Dense, error) {
	if x.s.plan != nil {
		return nil, ErrPlanOnly
	}
	if x.big != nil {
		if err := x.MaterializeCtx(context.Background()); err != nil {
			return nil, err
		}
		d, err := x.s.eng.ToDense(x.big)
		if err != nil {
			return nil, err
		}
		if x.trans {
			d = d.T()
		}
		return d, nil
	}
	return x.resolveSmall()
}

// AsVector materializes and returns the elements in row-major order (R's
// as.vector; for one-column matrices this is the natural vector).
func (x *FM) AsVector() ([]float64, error) {
	d, err := x.AsDense()
	if err != nil {
		return nil, err
	}
	return d.Data, nil
}

// Float forces a 1×1 matrix into its scalar value.
func (x *FM) Float() (float64, error) {
	r, c := x.dims()
	if r != 1 || c != 1 {
		return 0, errf("float", [][2]int64{{r, c}}, "not a 1x1 matrix")
	}
	d, err := x.AsDense()
	if err != nil {
		return 0, err
	}
	return d.Data[0], nil
}

// MustFloat is Float, panicking on error (examples and tests).
func (x *FM) MustFloat() float64 {
	v, err := x.Float()
	if err != nil {
		panic(err)
	}
	return v
}

// Element materializes and returns element (i, j) — access to individual
// elements of a sink triggers DAG materialization (§3.4 case iii). On a tall
// matrix only the partition holding the element is read.
func (x *FM) Element(i, j int64) (float64, error) {
	r, c := x.dims()
	if i < 0 || i >= r || j < 0 || j >= c {
		return 0, errf("element", nil, "(%d,%d) out of %dx%d", i, j, r, c)
	}
	if x.big != nil && x.trans {
		x, i, j = x.T(), j, i
	}
	d, err := GetRows(x, []int64{i})
	if err != nil {
		return 0, err
	}
	return d.Data[j], nil
}

// SetElement writes element (i, j) in place — R's x[i, j] <- v. Big matrices
// materialize first, then the engine privatizes any store shared with the
// result cache and records the mutation, so no cached result built over the
// old contents is ever served again.
func (x *FM) SetElement(i, j int64, v float64) error {
	if x.s.plan != nil {
		return ErrPlanOnly
	}
	if x.big != nil {
		if x.trans {
			i, j = j, i
		}
		if i < 0 || i >= x.big.NRow() || j < 0 || j >= int64(x.big.NCol()) {
			return errf("set.element", nil, "(%d,%d) out of %dx%d", i, j, x.big.NRow(), x.big.NCol())
		}
		if err := x.MaterializeCtx(context.Background()); err != nil {
			return err
		}
		return x.s.eng.SetElement(x.big, i, int(j), v)
	}
	d, err := x.resolveSmall()
	if err != nil {
		return err
	}
	if i < 0 || i >= int64(d.R) || j < 0 || j >= int64(d.C) {
		return errf("set.element", nil, "(%d,%d) out of %dx%d", i, j, d.R, d.C)
	}
	d.Set(int(i), int(j), v)
	return nil
}

// promote converts a small matrix into a tall engine leaf so it can mix with
// big matrices of the same partition dimension.
func (x *FM) promote() (*core.Mat, error) {
	if x.big != nil {
		if x.trans {
			return nil, errf("promote", shapesOf(x), "operation not supported on transposed large matrix; transpose is consumed by %%*%%/crossprod")
		}
		return x.big, nil
	}
	d, err := x.resolveSmall()
	if err != nil {
		return nil, err
	}
	return x.s.fromDense(d)
}
