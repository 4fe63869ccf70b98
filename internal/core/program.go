package core

import (
	"fmt"

	"repro/internal/matrix"
)

// Program is one pass compiled to a flat instruction list — the only form any
// executor runs. The planner lowers its post-CSE DAG into a
// Program once per pass (dag.compile); the local engine runs it, and a sharded
// coordinator ships the same Program to every shard worker, which resolves and
// runs it without planning anything.
//
// Instruction i computes slot i from earlier slots only, so list order is an
// evaluation order, and CSE unification is already in the slots: two
// consumers of one computation name the same slot. The leaf instructions form
// the leaf table — the stored matrices the pass reads, named by their
// worker-resident handle on the wire and bound to stores locally. Talls and
// Sinks name the slots the pass writes out and reduces. Sinks are in their
// raw (pre-publish-transform) form: the aggregation-fold transform is applied
// exactly once, by whoever publishes the result.
//
// The exported fields are the wire form. Resolve derives the rest — kernel
// pointers, which instructions are live, and the last use of every slot —
// and never sends any of it.
type Program struct {
	Nodes []ProgramNode
	Talls []int32 // instruction per tall target; unified targets repeat one
	Sinks []ProgramSink
	Cums  []int32 // cum.col instructions, in order

	// Derived by Resolve.
	resolved bool
	steps    []int32 // live instructions, in order
	leaves   []int32 // live leaf instructions (the leaf table)
	cums     []int32 // live cum.col instructions
	maxCol   int     // widest live slot
	executed int64   // live instructions that compute (neither leaf nor constant)
}

// ProgramNode is one instruction: the GenOp (Op) it applies to its operand
// slots A and B (-1 = none), producing a slot of NCol columns. Functions are
// named by their registered R names; Leaf names the worker-resident matrix a
// leaf instruction reads (empty until a coordinator maps the leaf table).
type ProgramNode struct {
	Op         uint8
	A, B       int32
	DT         uint8
	NCol       int32
	Un         string // unary function name
	Bin        string // binary function name
	Agg        string // aggregation function name
	Arg        uint8  // argMode for opAggRow
	Scalar     float64
	ScalarLeft bool
	Vec        []float64
	VecLeft    bool
	SmallR     int32 // opInnerProd right operand
	SmallC     int32
	Small      []float64
	F1, F2     string // opInnerProd functions; empty F1 = BLAS path
	Cols       []int32
	Labels     []int32
	GroupK     int32
	Leaf       string
	Const      float64

	// Resolved kernel and schedule (Resolve), never on the wire.
	un     *Unary
	bin    *Binary
	agg    *AggFunc
	f1, f2 *Binary
	cols   []int
	labels []int
	live   bool
	// outs are the tall positions this step writes out, folds the sinks whose
	// last operand this step produces, and free the slots whose last use is
	// this step: after it they go back to the buffer pool.
	outs  []int32
	folds []int32
	free  []int32
}

// ProgramSink is one sink GenOp reading slots A and B (B = -1 when the kind
// takes one input). B == A selects the symmetric Syrk kernel for crossprod.
type ProgramSink struct {
	Kind   uint8
	A, B   int32
	Agg    string
	F1, F2 string // empty F1 = BLAS path
	K      int32

	// Resolved (Resolve), never on the wire.
	agg        *AggFunc
	f1, f2     *Binary
	ncolA      int
	rows, cols int  // reduction shape of the fixed-shape kinds
	sym        bool // BLAS crossprod of a slot with itself
}

// ProgramResult is what one executed program produced: a store per tall
// position, the raw reduction per sink, and per cum.col instruction the
// accumulator after its last row (the carry a following shard continues
// from).
type ProgramResult struct {
	Talls    []matrix.Store
	Partials []*SinkPartial
	Carries  map[int32][]float64
}

// Leaves returns the leaf table: the live leaf instructions, in order.
func (p *Program) Leaves() []int32 { return p.leaves }

// compile lowers the planned DAG into its Program, one instruction per slot,
// and returns the matrix behind every leaf instruction (indexed like
// Program.Nodes, nil elsewhere). A leaf nothing reads — an explicit target
// the result cache served — is left out, so no pass reads or ships it.
func (d *dag) compile() (*Program, []*Mat, error) {
	leaf := make([]bool, len(d.nodes))
	read := make([]bool, len(d.nodes))
	mark := func(m *Mat) {
		if m != nil {
			read[d.slotOf[m.id]] = true
		}
	}
	for s, m := range d.nodes {
		if leaf[s] = m.Materialized(); !leaf[s] {
			mark(m.a)
			mark(m.b)
		}
	}
	for _, s := range d.sinks {
		mark(s.a)
		mark(s.b)
	}
	for _, m := range d.talls {
		mark(m)
	}
	idx := make([]int32, len(d.nodes))
	slot := func(m *Mat) int32 {
		if m == nil {
			return -1
		}
		return idx[d.slotOf[m.id]]
	}
	p := &Program{}
	var leafMats []*Mat
	for s, m := range d.nodes {
		if leaf[s] && !read[s] {
			idx[s] = -1
			continue
		}
		idx[s] = int32(len(p.Nodes))
		leafMats = append(leafMats, nil)
		n := ProgramNode{A: -1, B: -1, DT: uint8(m.dt), NCol: int32(m.ncol)}
		switch {
		case leaf[s]:
			n.Op = uint8(opLeaf)
			leafMats[idx[s]] = m
		case m.kind == opConst:
			n.Op = uint8(opConst)
			n.Const = m.vec[0]
		case m.kind == opLeaf:
			return nil, nil, fmt.Errorf("core: leaf %d was freed", m.id)
		default:
			n.Op = uint8(m.kind)
			n.A, n.B = slot(m.a), slot(m.b)
			if m.un != nil {
				n.Un = m.un.Name
			}
			if m.bin != nil {
				n.Bin = m.bin.Name
			}
			if m.agg != nil {
				n.Agg = m.agg.Name
			}
			n.Arg = uint8(m.arg)
			n.Scalar, n.ScalarLeft = m.scalar, m.scalarLeft
			n.VecLeft = m.vecLeft
			if m.kind == opMapplyRowVec {
				n.Vec = m.vec
			}
			if m.small != nil {
				n.SmallR, n.SmallC = int32(m.small.R), int32(m.small.C)
				n.Small = m.small.Data
			}
			if m.f1 != nil {
				n.F1 = m.f1.Name
			}
			if m.f2 != nil {
				n.F2 = m.f2.Name
			}
			n.Cols = toInt32s(m.cols)
			n.Labels = toInt32s(m.colLabels)
			n.GroupK = int32(m.groupK)
		}
		p.Nodes = append(p.Nodes, n)
		if m.kind == opCumCol && !leaf[s] {
			p.Cums = append(p.Cums, idx[s])
		}
	}
	for _, m := range d.talls {
		p.Talls = append(p.Talls, slot(m))
	}
	for _, s := range d.sinks {
		ps := ProgramSink{Kind: uint8(s.kind), A: slot(s.a), B: slot(s.b), K: int32(s.k)}
		if s.agg != nil {
			ps.Agg = s.agg.Name
		}
		if s.f1 != nil {
			ps.F1 = s.f1.Name
		}
		if s.f2 != nil {
			ps.F2 = s.f2.Name
		}
		p.Sinks = append(p.Sinks, ps)
	}
	if err := p.Resolve(); err != nil {
		return nil, nil, err
	}
	return p, leafMats, nil
}

// Resolve validates the program and links it for execution. Every property
// the executor relies on is checked here, so a program that resolves cannot
// make it index out of range: operands point strictly backwards, function
// names are registered, each instruction's column count follows from its
// operands, vector and index operands have matching lengths and ranges, and
// every sink is of a known kind over operands of the shape it needs. Leaf
// shapes against real data are the binder's check (ExecProgram, and the shard
// worker for dtypes).
func (p *Program) Resolve() error {
	p.resolved = false
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if err := n.resolve(int32(i), p.Nodes[:i]); err != nil {
			return fmt.Errorf("core: invalid program: node %d (%s): %w", i, opKind(n.Op), err)
		}
	}
	for j := range p.Sinks {
		s := &p.Sinks[j]
		if err := s.resolve(p.Nodes); err != nil {
			return fmt.Errorf("core: invalid program: sink %d (%s): %w", j, SinkKind(s.Kind), err)
		}
	}
	for _, t := range p.Talls {
		if t < 0 || int(t) >= len(p.Nodes) {
			return fmt.Errorf("core: invalid program: tall index %d", t)
		}
	}
	for _, c := range p.Cums {
		if c < 0 || int(c) >= len(p.Nodes) || opKind(p.Nodes[c].Op) != opCumCol {
			return fmt.Errorf("core: invalid program: cum index %d is not a cum.col", c)
		}
	}

	// Liveness, backwards: tall targets and sink operands are live, and so
	// is every operand of a live instruction. Dead instructions (a lineage
	// replay strips the sinks they fed) never run.
	for _, t := range p.Talls {
		p.Nodes[t].live = true
	}
	for _, s := range p.Sinks {
		p.Nodes[s.A].live = true
		if s.B >= 0 {
			p.Nodes[s.B].live = true
		}
	}
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if n := &p.Nodes[i]; n.live {
			if n.A >= 0 {
				p.Nodes[n.A].live = true
			}
			if n.B >= 0 {
				p.Nodes[n.B].live = true
			}
		}
	}

	// A slot's last use is its last reader's step; a tall is written out at
	// its own step and a sink folds at the step producing its later operand,
	// so a slot nothing reads afterwards is released where it was made.
	last := make([]int32, len(p.Nodes))
	for i := range last {
		last[i] = int32(i)
	}
	use := func(slot, step int32) {
		if slot >= 0 && step > last[slot] {
			last[slot] = step
		}
	}
	p.steps, p.leaves, p.cums, p.maxCol, p.executed = nil, nil, nil, 1, 0
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if !n.live {
			continue
		}
		use(n.A, int32(i))
		use(n.B, int32(i))
		p.steps = append(p.steps, int32(i))
		if int(n.NCol) > p.maxCol {
			p.maxCol = int(n.NCol)
		}
		switch opKind(n.Op) {
		case opLeaf:
			p.leaves = append(p.leaves, int32(i))
		case opConst:
		case opCumCol:
			p.cums = append(p.cums, int32(i))
			p.executed++
		default:
			p.executed++
		}
	}
	for t, ti := range p.Talls {
		p.Nodes[ti].outs = append(p.Nodes[ti].outs, int32(t))
	}
	for j, s := range p.Sinks {
		at := max(s.A, s.B)
		p.Nodes[at].folds = append(p.Nodes[at].folds, int32(j))
		use(s.A, at)
		use(s.B, at)
	}
	for s, l := range last {
		if p.Nodes[s].live {
			p.Nodes[l].free = append(p.Nodes[l].free, int32(s))
		}
	}
	p.resolved = true
	return nil
}

// resolve links and validates instruction i against the instructions before
// it, resetting every derived field first (a program may resolve twice).
func (n *ProgramNode) resolve(i int32, prior []ProgramNode) error {
	n.un, n.bin, n.agg, n.f1, n.f2 = nil, nil, nil, nil, nil
	n.cols, n.labels = nil, nil
	n.live, n.outs, n.folds, n.free = false, nil, nil, nil
	if _, err := LeafDType(n.DT); err != nil {
		return err
	}
	if n.NCol < 0 {
		return fmt.Errorf("negative column count %d", n.NCol)
	}
	op := opKind(n.Op)
	var needA, needB bool
	switch op {
	case opLeaf, opConst:
	case opMapplyMM, opMapplyColVec, opCbind, opSetCols:
		needA, needB = true, true
	case opSapply, opMapplyScalar, opMapplyRowVec, opInnerProd, opAggRow,
		opGroupByCol, opCumRow, opCumCol, opCols:
		needA = true
	default:
		return fmt.Errorf("unknown op %d", n.Op)
	}
	if err := checkOperand("a", n.A, needA, i); err != nil {
		return err
	}
	if err := checkOperand("b", n.B, needB, i); err != nil {
		return err
	}
	var nca, ncb int
	if needA {
		nca = int(prior[n.A].NCol)
	}
	if needB {
		ncb = int(prior[n.B].NCol)
	}
	want := int(n.NCol)
	var err error
	switch op {
	case opSapply:
		n.un, err = LookupUnary(n.Un)
		want = nca
	case opMapplyMM:
		n.bin, err = LookupBinary(n.Bin)
		if ncb != nca {
			return fmt.Errorf("operands have %d and %d columns", nca, ncb)
		}
		want = nca
	case opMapplyScalar:
		n.bin, err = LookupBinary(n.Bin)
		want = nca
	case opMapplyRowVec:
		n.bin, err = LookupBinary(n.Bin)
		if len(n.Vec) != nca {
			return fmt.Errorf("vector of %d for %d columns", len(n.Vec), nca)
		}
		want = nca
	case opMapplyColVec:
		n.bin, err = LookupBinary(n.Bin)
		if ncb != 1 {
			return fmt.Errorf("column operand has %d columns, want 1", ncb)
		}
		want = nca
	case opInnerProd:
		if n.F1 != "" {
			if n.f1, err = LookupBinary(n.F1); err != nil {
				return err
			}
			n.f2, err = LookupBinary(n.F2)
		}
		if int(n.SmallR) != nca || n.SmallC < 0 || int64(n.SmallR)*int64(n.SmallC) != int64(len(n.Small)) {
			return fmt.Errorf("%dx%d operand with %d values for %d columns", n.SmallR, n.SmallC, len(n.Small), nca)
		}
		want = int(n.SmallC)
	case opAggRow:
		switch argMode(n.Arg) {
		case argNone:
			n.agg, err = LookupAgg(n.Agg)
		case argMin, argMax:
			if nca < 1 {
				return fmt.Errorf("which.min/which.max over zero columns")
			}
		default:
			return fmt.Errorf("unknown arg mode %d", n.Arg)
		}
		want = 1
	case opGroupByCol:
		n.agg, err = LookupAgg(n.Agg)
		if len(n.Labels) != nca {
			return fmt.Errorf("%d labels for %d columns", len(n.Labels), nca)
		}
		n.labels = toInts(n.Labels)
		for _, l := range n.labels {
			if l < 0 || l >= int(n.GroupK) {
				return fmt.Errorf("label %d out of range [0,%d)", l, n.GroupK)
			}
		}
		want = int(n.GroupK)
	case opCumRow, opCumCol:
		n.agg, err = LookupAgg(n.Agg)
		want = nca
	case opCols:
		n.cols = toInts(n.Cols)
		if err := checkCols(n.cols, nca); err != nil {
			return err
		}
		want = len(n.cols)
	case opCbind:
		want = nca + ncb
	case opSetCols:
		n.cols = toInts(n.Cols)
		if len(n.cols) != ncb {
			return fmt.Errorf("%d columns assigned from %d", len(n.cols), ncb)
		}
		if err := checkCols(n.cols, nca); err != nil {
			return err
		}
		want = nca
	}
	if err != nil {
		return err
	}
	if int(n.NCol) != want {
		return fmt.Errorf("%d columns, operands give %d", n.NCol, want)
	}
	return nil
}

// resolve links and validates a sink against the program's instructions.
func (s *ProgramSink) resolve(nodes []ProgramNode) error {
	s.agg, s.f1, s.f2, s.sym = nil, nil, nil, false
	kind := SinkKind(s.Kind)
	needB := kind == SinkGroupByRow || kind == SinkCrossProd
	end := int32(len(nodes))
	if err := checkOperand("a", s.A, true, end); err != nil {
		return err
	}
	if err := checkOperand("b", s.B, needB, end); err != nil {
		return err
	}
	s.ncolA = int(nodes[s.A].NCol)
	s.rows, s.cols = 1, 1
	var err error
	switch kind {
	case SinkAgg, SinkGroupByVal:
		s.agg, err = LookupAgg(s.Agg)
	case SinkAggCol:
		s.agg, err = LookupAgg(s.Agg)
		s.cols = s.ncolA
	case SinkGroupByRow:
		s.agg, err = LookupAgg(s.Agg)
		if nodes[s.B].NCol != 1 {
			return fmt.Errorf("labels have %d columns, want 1", nodes[s.B].NCol)
		}
		if s.K < 0 {
			return fmt.Errorf("negative group count %d", s.K)
		}
		s.rows, s.cols = int(s.K), s.ncolA
	case SinkCrossProd:
		if s.F1 != "" {
			if s.f1, err = LookupBinary(s.F1); err != nil {
				return err
			}
			s.f2, err = LookupBinary(s.F2)
		}
		s.rows, s.cols = s.ncolA, int(nodes[s.B].NCol)
		s.sym = s.f1 == nil && s.A == s.B
	case SinkTable:
	default:
		return fmt.Errorf("unknown sink kind %d", s.Kind)
	}
	return err
}

// checkOperand validates an operand slot of the instruction (or sink) at
// step: present exactly when needed, and strictly earlier.
func checkOperand(what string, slot int32, need bool, step int32) error {
	switch {
	case !need && slot != -1:
		return fmt.Errorf("unexpected input %s %d", what, slot)
	case need && (slot < 0 || slot >= step):
		return fmt.Errorf("input %s index %d is not an earlier instruction", what, slot)
	}
	return nil
}

func checkCols(cols []int, ncol int) error {
	for _, c := range cols {
		if c < 0 || c >= ncol {
			return fmt.Errorf("column %d out of range [0,%d)", c, ncol)
		}
	}
	return nil
}

// LeafDType decodes a wire dtype byte, validating it.
func LeafDType(b uint8) (matrix.DType, error) {
	switch dt := matrix.DType(b); dt {
	case matrix.F64, matrix.I64, matrix.Bool:
		return dt, nil
	default:
		return 0, fmt.Errorf("core: invalid dtype %d", b)
	}
}

func toInt32s(xs []int) []int32 {
	if xs == nil {
		return nil
	}
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

func toInts(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}
