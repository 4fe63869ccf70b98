package repl

import (
	"errors"
	"fmt"
	"math"
	"strings"

	flashr "repro"
	"repro/internal/dense"
)

// Value is a REPL value: a scalar, a string, or a FlashR matrix.
type Value struct {
	Num    float64
	Str    string
	Mat    *flashr.FM
	isNum  bool
	isStr  bool
	isNull bool
	// deferred marks a 1×1 Mat that stands for a scalar: a whole-matrix
	// reduction (sum, mean, agg, …) or element-wise arithmetic on scalars
	// that includes one. It stays a pending sink, so the reductions of a
	// whole request batch materialize together in one shared flush; a
	// numeric argument, an index or Format forces it.
	deferred bool
}

func numVal(v float64) Value         { return Value{Num: v, isNum: true} }
func strVal(s string) Value          { return Value{Str: s, isStr: true} }
func matVal(m *flashr.FM) Value      { return Value{Mat: m} }
func deferredVal(m *flashr.FM) Value { return Value{Mat: m, deferred: true} }
func nullVal() Value                 { return Value{isNull: true} }

// IsMatrix reports whether the value is a FlashR matrix.
func (v Value) IsMatrix() bool { return v.Mat != nil }

// IsNull reports a missing value (blank statements).
func (v Value) IsNull() bool { return v.isNull }

// scalar reports whether the value is a number, forced or deferred.
func (v Value) scalar() bool { return v.isNum || v.deferred }

// number returns a scalar's value, forcing a deferred one.
func (v Value) number() (float64, error) {
	switch {
	case v.isNum:
		return v.Num, nil
	case v.deferred:
		return v.Mat.Float()
	}
	return 0, errors.New("not a number")
}

// Env is an interpreter session: a variable environment over a flashr
// Session.
type Env struct {
	S    *flashr.Session
	vars map[string]Value
}

// NewEnv builds an interpreter over the given session.
func NewEnv(s *flashr.Session) *Env {
	return &Env{S: s, vars: map[string]Value{}}
}

// Vars lists defined variable names.
func (e *Env) Vars() []string {
	out := make([]string, 0, len(e.vars))
	for k := range e.vars {
		out = append(out, k)
	}
	return out
}

// Eval parses and evaluates one statement.
func (e *Env) Eval(src string) (Value, error) {
	v, _, err := e.EvalStmt(src)
	return v, err
}

// EvalStmt parses and evaluates one statement, additionally reporting
// whether the statement's value would print at an R prompt (assignments and
// blank statements evaluate to a value but do not print). Batch servers use
// this to avoid forcing — and paying materialization passes for — values the
// client never asked to see.
func (e *Env) EvalStmt(src string) (Value, bool, error) {
	n, err := Parse(src)
	if err != nil {
		return Value{}, false, err
	}
	if n == nil {
		return nullVal(), false, nil
	}
	v, err := e.evalNode(n)
	if err != nil {
		return Value{}, false, err
	}
	_, assigned := n.(*assignNode)
	return v, !assigned && !v.IsNull(), nil
}

func (e *Env) evalNode(n node) (v Value, err error) {
	defer func() {
		// The flashr API panics on shape/type misuse (like R's stop());
		// surface those as REPL errors instead of crashing the shell. The
		// panic value is a typed *flashr.Error — keep it as the error value
		// (not just its rendering) so callers can errors.As it back out.
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("%v", r)
			}
		}
	}()
	return e.eval(n)
}

func (e *Env) eval(n node) (Value, error) {
	switch t := n.(type) {
	case *numNode:
		return numVal(t.v), nil
	case *strNode:
		return strVal(t.v), nil
	case *identNode:
		if v, ok := e.vars[t.name]; ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("object '%s' not found", t.name)
	case *assignNode:
		v, err := e.eval(t.rhs)
		if err != nil {
			return Value{}, err
		}
		e.vars[t.name] = v
		return v, nil
	case *unNode:
		x, err := e.eval(t.x)
		if err != nil {
			return Value{}, err
		}
		switch t.op {
		case "-":
			if x.isNum {
				return numVal(-x.Num), nil
			}
			return Value{Mat: flashr.Neg(x.Mat), deferred: x.deferred}, nil
		case "!":
			if x.isNum {
				if x.Num == 0 {
					return numVal(1), nil
				}
				return numVal(0), nil
			}
			return Value{Mat: flashr.Not(x.Mat), deferred: x.deferred}, nil
		}
		return Value{}, fmt.Errorf("unary %q unsupported", t.op)
	case *binNode:
		return e.evalBin(t)
	case *callNode:
		return e.evalCall(t)
	case *indexNode:
		return e.evalIndex(t)
	}
	return Value{}, fmt.Errorf("unhandled syntax")
}

func (e *Env) evalBin(t *binNode) (Value, error) {
	l, err := e.eval(t.l)
	if err != nil {
		return Value{}, err
	}
	r, err := e.eval(t.r)
	if err != nil {
		return Value{}, err
	}
	if t.op == "%*%" {
		if !l.IsMatrix() || !r.IsMatrix() {
			return Value{}, fmt.Errorf("%%*%% needs two matrices")
		}
		return matVal(flashr.MatMul(l.Mat, r.Mat)), nil
	}
	// Scalar-scalar arithmetic stays scalar.
	if l.isNum && r.isNum {
		v, err := scalarBin(t.op, l.Num, r.Num)
		if err != nil {
			return Value{}, err
		}
		return numVal(v), nil
	}
	lo, ro := operand(l), operand(r)
	var out *flashr.FM
	switch t.op {
	case "+":
		out = flashr.Add(lo, ro)
	case "-":
		out = flashr.Sub(lo, ro)
	case "*":
		out = flashr.Mul(lo, ro)
	case "/":
		out = flashr.Div(lo, ro)
	case "^":
		out = flashr.Pow(lo, ro)
	case "%%":
		out = flashr.Mod(lo, ro)
	case "==":
		out = flashr.Eq(lo, ro)
	case "!=":
		out = flashr.Ne(lo, ro)
	case "<":
		out = flashr.Lt(lo, ro)
	case "<=":
		out = flashr.Le(lo, ro)
	case ">":
		out = flashr.Gt(lo, ro)
	case ">=":
		out = flashr.Ge(lo, ro)
	case "&", "&&":
		out = flashr.And(lo, ro)
	case "|", "||":
		out = flashr.Or(lo, ro)
	default:
		return Value{}, fmt.Errorf("operator %q unsupported", t.op)
	}
	return Value{Mat: out, deferred: l.scalar() && r.scalar()}, nil
}

func scalarBin(op string, a, b float64) (float64, error) {
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		return a / b, nil
	case "%%":
		return a - b*math.Floor(a/b), nil
	case "^":
		return math.Pow(a, b), nil
	case "==":
		return b2f(a == b), nil
	case "!=":
		return b2f(a != b), nil
	case "<":
		return b2f(a < b), nil
	case "<=":
		return b2f(a <= b), nil
	case ">":
		return b2f(a > b), nil
	case ">=":
		return b2f(a >= b), nil
	case "&", "&&":
		return b2f(a != 0 && b != 0), nil
	case "|", "||":
		return b2f(a != 0 || b != 0), nil
	}
	return 0, fmt.Errorf("operator %q unsupported on scalars", op)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func operand(v Value) any {
	if v.IsMatrix() {
		return v.Mat
	}
	return v.Num
}

// evalIndex handles x[rows, cols]; only column selection and single-element
// access are supported (matching the GetCols/Element surface).
func (e *Env) evalIndex(t *indexNode) (Value, error) {
	xv, err := e.eval(t.x)
	if err != nil {
		return Value{}, err
	}
	if !xv.IsMatrix() {
		return Value{}, fmt.Errorf("indexing a non-matrix")
	}
	if t.rows != nil && t.cols != nil {
		r, err := e.index(t.rows, "element access needs scalar indices")
		if err != nil {
			return Value{}, err
		}
		c, err := e.index(t.cols, "element access needs scalar indices")
		if err != nil {
			return Value{}, err
		}
		// 1-based, like R.
		val, err := xv.Mat.Element(int64(r)-1, int64(c)-1)
		if err != nil {
			return Value{}, err
		}
		return numVal(val), nil
	}
	if t.cols != nil {
		c, err := e.index(t.cols, "column index must be scalar")
		if err != nil {
			return Value{}, err
		}
		return matVal(flashr.GetCol(xv.Mat, int(c)-1)), nil
	}
	if t.rows != nil {
		r, err := e.index(t.rows, "row index must be scalar")
		if err != nil {
			return Value{}, err
		}
		d, err := flashr.GetRows(xv.Mat, []int64{int64(r) - 1})
		if err != nil {
			return Value{}, err
		}
		return matVal(xv.Mat.Session().Small(d)), nil
	}
	return xv, nil
}

// index evaluates one index expression to a number, forcing a deferred
// scalar; a non-scalar index fails with msg.
func (e *Env) index(n node, msg string) (float64, error) {
	v, err := e.eval(n)
	if err != nil {
		return 0, err
	}
	if !v.scalar() {
		return 0, errors.New(msg)
	}
	return v.number()
}

// Format renders a value for the prompt: scalars directly, small matrices
// fully, large matrices as a summary plus a corner preview. Printing is the
// forcing point of a deferred scalar; when a batch flush already ran, its
// value is served from that pass.
func (e *Env) Format(v Value) (string, error) {
	switch {
	case v.isNull:
		return "", nil
	case v.scalar():
		f, err := v.number()
		if err != nil {
			return "", err
		}
		return formatScalar(f), nil
	case v.isStr:
		if strings.Contains(v.Str, "\n") {
			return strings.TrimRight(v.Str, "\n"), nil
		}
		return fmt.Sprintf("[1] %q", v.Str), nil
	case v.Mat != nil:
		return formatMatrix(v.Mat)
	}
	return "NULL", nil
}

// formatScalar renders a scalar the way R's print does, forced or deferred:
// R prints Inf, not Go's %g "+Inf".
func formatScalar(f float64) string {
	switch {
	case math.IsNaN(f):
		return "[1] NaN"
	case math.IsInf(f, 1):
		return "[1] Inf"
	case math.IsInf(f, -1):
		return "[1] -Inf"
	}
	return fmt.Sprintf("[1] %g", f)
}

func formatMatrix(m *flashr.FM) (string, error) {
	r, c := m.Dim()
	if r*c <= 64 {
		d, err := m.AsDense()
		if err != nil {
			return "", err
		}
		return renderDense(d), nil
	}
	head, err := flashr.Head(m, 4)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	virt := ""
	if m.IsVirtual() {
		virt = " (virtual)"
	}
	fmt.Fprintf(&b, "FlashR matrix %d x %d%s, showing first rows:\n", r, c, virt)
	b.WriteString(renderDense(head))
	return b.String(), nil
}

func renderDense(d *dense.Dense) string {
	var b strings.Builder
	cols := d.C
	if cols > 8 {
		cols = 8
	}
	for i := 0; i < d.R; i++ {
		fmt.Fprintf(&b, "[%d,]", i+1)
		for j := 0; j < cols; j++ {
			fmt.Fprintf(&b, " %10.4g", d.At(i, j))
		}
		if cols < d.C {
			b.WriteString(" …")
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}
