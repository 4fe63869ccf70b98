package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/dense"
)

// sinkAcc is one partition's fold state for a sink GenOp, and the running
// merge of a pass's or the shards' partials. Per §3.3 (g,h,i), each thread
// folds into a local buffer; the partition then snapshots it to a
// SinkPartial, and partials are what the engine merges. The fixed-shape
// kinds fold straight into the embedded partial's Data.
type sinkAcc struct {
	SinkPartial
	s     *ProgramSink
	table keyedVals[int64]   // SinkTable
	byVal keyedVals[float64] // SinkGroupByVal
}

// keyedVals is a keyed sink's value per distinct key. NaN is held outside
// the map, where every NaN would be a fresh key: nan says some row held one,
// nanKey is the last seen (as a map keeps the last of equal keys) and nanVal
// is its count or fold.
type keyedVals[V int64 | float64] struct {
	m      map[float64]V
	nan    bool
	nanKey float64
	nanVal V
}

// merge adds keys with their values, combining a key already held as
// both(held, new). The new key's bits stay, as a map assignment keeps them,
// so a zero key keeps the sign of the last zero merged.
func (kv *keyedVals[V]) merge(keys []float64, vals []V, both func(a, b V) V) {
	for i, k := range keys {
		v := vals[i]
		if k != k {
			if kv.nan {
				v = both(kv.nanVal, v)
			}
			kv.nan, kv.nanKey, kv.nanVal = true, k, v
			continue
		}
		if held, ok := kv.m[k]; ok {
			v = both(held, v)
		}
		kv.m[k] = v
	}
}

// pairs lists the keys with their values: in sort.Float64s order (NaN
// first, as cmp.Compare puts it) when sorted, else in map order. The pairs
// are sorted together, so no key is looked up again.
func (kv *keyedVals[V]) pairs(sorted bool) ([]float64, []V) {
	type pair struct {
		k float64
		v V
	}
	ps := make([]pair, 0, len(kv.m)+1)
	if kv.nan {
		ps = append(ps, pair{kv.nanKey, kv.nanVal})
	}
	for k, v := range kv.m {
		ps = append(ps, pair{k, v})
	}
	if sorted {
		slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
	}
	keys, vals := make([]float64, len(ps)), make([]V, len(ps))
	for i, p := range ps {
		keys[i], vals[i] = p.k, p.v
	}
	return keys, vals
}

func newSinkAcc(s *ProgramSink) *sinkAcc {
	a := &sinkAcc{s: s}
	switch SinkKind(s.Kind) {
	case SinkAgg, SinkAggCol, SinkGroupByRow, SinkCrossProd:
		a.Data = make([]float64, s.rows*s.cols)
	case SinkTable:
		a.table.m = make(map[float64]int64)
	case SinkGroupByVal:
		a.byVal.m = make(map[float64]float64)
	default:
		panic(fmt.Sprintf("core: accumulator for unresolved sink kind %d", s.Kind))
	}
	a.reset()
	return a
}

// reset returns the accumulator to the fold identity and keeps its storage,
// so a pass can reuse a merged partition's accumulators for a later one.
func (a *sinkAcc) reset() {
	s := a.s
	a.SinkPartial = SinkPartial{R: s.rows, C: s.cols, Data: a.Data}
	switch SinkKind(s.Kind) {
	case SinkAgg, SinkAggCol, SinkGroupByRow:
		for i := range a.Data {
			a.Data[i] = s.agg.Init
		}
	case SinkCrossProd:
		init := 0.0
		if s.f1 != nil {
			init = aggInitFor(s.f2)
		}
		for i := range a.Data {
			a.Data[i] = init
		}
	case SinkTable:
		clear(a.table.m)
		a.table.nan, a.table.nanVal = false, 0
	case SinkGroupByVal:
		clear(a.byVal.m)
		a.byVal.nan, a.byVal.nanVal = false, s.agg.Init
	}
}

// fold folds one Pcache chunk of cr rows into the worker-local partial: in is
// the chunk of the sink's input A, lab the chunk of its input B (nil for the
// one-input kinds).
func (a *sinkAcc) fold(in, lab []float64, cr int) error {
	s := a.s
	a.Used = true
	nc := s.ncolA
	switch SinkKind(s.Kind) {
	case SinkAgg:
		a.Data[0] = s.agg.StepV(a.Data[0], in[:cr*nc])

	case SinkAggCol:
		// vec is hoisted out of the receiver and each row re-sliced to its
		// length, so the inner loop runs without a bounds check or a reload
		// of a.Data per element.
		vec := a.Data[:nc]
		if s.agg == AggSum {
			// Four rows per sweep over vec: each column adds its four
			// terms left to right, the same additions in the same order
			// as four row-by-row sweeps, so the bits are those of the
			// row-by-row loop, which runs the tail.
			r := 0
			for ; r+4 <= cr; r += 4 {
				r0 := in[r*nc:][:len(vec)]
				r1 := in[(r+1)*nc:][:len(vec)]
				r2 := in[(r+2)*nc:][:len(vec)]
				r3 := in[(r+3)*nc:][:len(vec)]
				for j, v := range vec {
					vec[j] = v + r0[j] + r1[j] + r2[j] + r3[j]
				}
			}
			for ; r < cr; r++ {
				row := in[r*nc:][:len(vec)]
				for j, x := range row {
					vec[j] += x
				}
			}
		} else {
			f := s.agg
			for r := 0; r < cr; r++ {
				row := in[r*nc:][:len(vec)]
				for j, x := range row {
					vec[j] = f.Step(vec[j], x)
				}
			}
		}

	case SinkGroupByRow:
		// Labels are data: an out-of-range one fails the pass with an error,
		// like any bad input. NaN (which.min of an all-NaN row) is rejected
		// before int(), whose result for NaN differs by platform.
		for r := 0; r < cr; r++ {
			if math.IsNaN(lab[r]) {
				return fmt.Errorf("core: groupby.row label NaN")
			}
			if g := int(lab[r]); g < 0 || g >= s.rows {
				return fmt.Errorf("core: groupby.row label %d out of range [0,%d)", g, s.rows)
			}
		}
		if s.agg == AggSum {
			for r := 0; r < cr; r++ {
				g := int(lab[r])
				row := in[r*nc : (r+1)*nc]
				grow := a.Data[g*nc : (g+1)*nc]
				for j, x := range row {
					grow[j] += x
				}
			}
		} else {
			f := s.agg
			for r := 0; r < cr; r++ {
				g := int(lab[r])
				row := in[r*nc : (r+1)*nc]
				grow := a.Data[g*nc : (g+1)*nc]
				for j, x := range row {
					grow[j] = f.Step(grow[j], x)
				}
			}
		}

	case SinkCrossProd:
		pa, pb := s.rows, s.cols
		switch {
		case s.sym:
			// Symmetric Gramian t(A)%*%A: rank-k update on the upper
			// triangle only (BLAS dsyrk — what R's crossprod calls);
			// mirrored once, in the final snapshot.
			blas.Syrk(cr, pa, in, pa, a.Data, pa)
		case s.f1 == nil:
			blas.GemmTA(cr, pb, pa, in, pa, lab, pb, a.Data, pb)
		default:
			f1, f2 := s.f1.F, s.f2.F
			for r := 0; r < cr; r++ {
				arow := in[r*pa : (r+1)*pa]
				brow := lab[r*pb : (r+1)*pb]
				for i, av := range arow {
					crow := a.Data[i*pb : (i+1)*pb]
					for j, bv := range brow {
						crow[j] = f2(f1(av, bv), crow[j])
					}
				}
			}
		}

	case SinkTable:
		kv := &a.table
		for _, v := range in[:cr*nc] {
			if v != v {
				kv.nan, kv.nanKey, kv.nanVal = true, v, kv.nanVal+1
				continue
			}
			kv.m[v]++
		}

	case SinkGroupByVal:
		kv, f := &a.byVal, s.agg
		for _, v := range in[:cr*nc] {
			if v != v {
				kv.nan, kv.nanKey, kv.nanVal = true, v, f.Step(kv.nanVal, v)
				continue
			}
			acc, ok := kv.m[v]
			if !ok {
				acc = f.Init
			}
			kv.m[v] = f.Step(acc, v)
		}
	}
	return nil
}

// snapshot returns the accumulator's partial once its last chunk is folded
// or its last partial merged; it lists the keyed kinds' keys with their
// counts or folds. A partition's snapshot lists them in map order and leaves
// a symmetric crossprod's lower triangle at zero, as merge needs neither. A
// final one, what a pass or the coordinator publishes, mirrors the
// crossprod, sorts the keys and repeats them (table) or the folds (groupby)
// in Data, the 1×C dense Sink.Result returns. With no rows folded it is the
// fold identity, as R's empty reductions are (sum(c()) == 0, min(c()) ==
// Inf).
func (a *sinkAcc) snapshot(final bool) *SinkPartial {
	p := &a.SinkPartial
	switch SinkKind(a.s.Kind) {
	case SinkCrossProd:
		if a.s.sym && final {
			blas.SymmetrizeLower(p.R, p.Data, p.R)
		}
	case SinkTable:
		p.Keys, p.Counts = a.table.pairs(final)
		p.C = len(p.Keys)
		if final {
			p.Data = append([]float64(nil), p.Keys...)
		}
	case SinkGroupByVal:
		p.Keys, p.Folds = a.byVal.pairs(final)
		p.C = len(p.Keys)
		if final {
			p.Data = append([]float64(nil), p.Folds...)
		}
	}
	return p
}

// SinkPartial is the one form of a sink result: what a partition's fold
// snapshots to, what sinkAcc.merge merges, what a shard worker ships, a
// published Sink holds and the result cache stores. Data holds the R×C
// values; the keyed kinds (table, groupby) carry distinct Keys with their
// Counts or Folds. Past a partition (sinkAcc.snapshot) the keys are in sort.Float64s order
// (NaN first) and Data repeats the keys or folds as 1×C.
type SinkPartial struct {
	Used   bool
	R, C   int
	Data   []float64
	Keys   []float64
	Counts []int64
	Folds  []float64
}

// clone deep-copies p (nil stays nil). The result cache stores and serves
// clones, so user code mutating a returned dense never reaches it.
func (p *SinkPartial) clone() *SinkPartial {
	if p == nil {
		return nil
	}
	q := *p
	q.Data = append([]float64(nil), p.Data...)
	q.Keys = append([]float64(nil), p.Keys...)
	q.Counts = append([]int64(nil), p.Counts...)
	q.Folds = append([]float64(nil), p.Folds...)
	return &q
}

// sizeBytes is what the result cache charges for p.
func (p *SinkPartial) sizeBytes() int64 {
	return max(8, 8*int64(len(p.Data)+len(p.Keys)+len(p.Counts)+len(p.Folds)))
}

// merge folds src into a, the sink's running result. It is the one merge:
// a pass applies it to its partitions' partials in partition order
// (commitPart), the coordinator to its shards' in shard order (Combine).
// AggFunc.Combine merges the fold kinds, addition the BLAS crossprod
// (symmetrization commutes with it), f2 the generalized one; the keyed kinds merge key by key into their
// map, one insert per key, and sort once, in the final snapshot. An unused
// src (no rows folded) changes nothing.
func (a *sinkAcc) merge(src *SinkPartial) {
	if !src.Used {
		return
	}
	s := a.s
	switch SinkKind(s.Kind) {
	case SinkAgg, SinkAggCol, SinkGroupByRow:
		if !a.Used {
			copy(a.Data, src.Data)
			break
		}
		for i, v := range src.Data {
			a.Data[i] = s.agg.Combine(a.Data[i], v)
		}
	case SinkCrossProd:
		switch {
		case s.f1 == nil:
			for i, v := range src.Data {
				a.Data[i] += v
			}
		case !a.Used:
			copy(a.Data, src.Data)
		default:
			f2 := s.f2.F
			for i, v := range src.Data {
				a.Data[i] = f2(v, a.Data[i])
			}
		}
	case SinkTable:
		a.table.merge(src.Keys, src.Counts, func(x, y int64) int64 { return x + y })
	case SinkGroupByVal:
		a.byVal.merge(src.Keys, src.Folds, s.agg.Combine)
	}
	a.Used = true
}

// Combine merges the shards' partials in shard order with the merge a pass
// applies to its partitions'. They came off the network, so each is checked
// against the sink's shape first; unused ones (zero-row shards) are skipped.
func (s *ProgramSink) Combine(parts []*SinkPartial) (*SinkPartial, error) {
	acc := newSinkAcc(s)
	for wi, p := range parts {
		if p == nil || !p.Used {
			continue
		}
		if err := s.checkPartial(p, len(acc.Data)); err != nil {
			return nil, fmt.Errorf("core: shard %d %s partial %v", wi, SinkKind(s.Kind), err)
		}
		acc.merge(p)
	}
	return acc.snapshot(true), nil
}

// checkPartial checks what merge indexes: n values, or one count or fold
// per key.
func (s *ProgramSink) checkPartial(p *SinkPartial, n int) error {
	vals := len(p.Data)
	switch SinkKind(s.Kind) {
	case SinkTable:
		n, vals = len(p.Keys), len(p.Counts)
	case SinkGroupByVal:
		n, vals = len(p.Keys), len(p.Folds)
	}
	if vals != n {
		return fmt.Errorf("has %d values, want %d", vals, n)
	}
	return nil
}

// FoldValues runs the table fold (f nil) or the groupby fold of f over
// values held in memory: the fold a pass's keyed sink runs on each chunk.
func FoldValues(data []float64, f *AggFunc) *SinkPartial {
	s := &ProgramSink{Kind: uint8(SinkTable), ncolA: 1, rows: 1, cols: 1}
	if f != nil {
		s.Kind, s.agg = uint8(SinkGroupByVal), f
	}
	a := newSinkAcc(s)
	_ = a.fold(data, nil, len(data)) // the keyed folds cannot fail
	return a.snapshot(true)
}

// PublishRaw installs p as the sink's result and takes ownership of it. It
// is the one publish: a fresh pass hands over its merged partial, a cache
// hit or a within-pass duplicate a clone.
func (s *Sink) PublishRaw(p *SinkPartial) {
	s.mu.Lock()
	s.part = p
	s.mu.Unlock()
}

// held returns the published partial, nil before publication.
func (s *Sink) held() *SinkPartial {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.part
}

// published is held for the result accessors. Callers materialize first
// (Engine.Materialize or the public API), so nil is a bug.
func (s *Sink) published() *SinkPartial {
	if p := s.held(); p != nil {
		return p
	}
	panic("core: sink not materialized")
}

// Done reports whether the sink has been materialized.
func (s *Sink) Done() bool { return s.held() != nil }

// Result returns the materialized result as an R×C dense over the held
// partial's values (1×C keys or folds for the keyed kinds).
func (s *Sink) Result() *dense.Dense {
	p := s.published()
	return dense.FromSlice(p.R, p.C, p.Data)
}

// TableResult returns the sorted distinct values and their counts for a
// SinkTable.
func (s *Sink) TableResult() (keys []float64, counts []int64) {
	p := s.published()
	return p.Keys, p.Counts
}

// GroupByValResult returns the sorted distinct values and the per-group
// folds for a SinkGroupByVal.
func (s *Sink) GroupByValResult() (keys, folds []float64) {
	p := s.published()
	return p.Keys, p.Folds
}
