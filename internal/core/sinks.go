package core

import (
	"fmt"
	"math"

	"repro/internal/blas"
)

// sinkAcc is one worker's partial state for a sink GenOp. Per §3.3 (g,h,i),
// each thread folds into a local buffer and the engine combines the partials
// once the pass completes.
type sinkAcc struct {
	s     *ProgramSink
	used  bool
	acc   float64             // SinkAgg
	vec   []float64           // SinkAggCol (p) / SinkGroupByRow (k*p) / SinkCrossProd (pa*pb)
	table map[float64]int64   // SinkTable
	byVal map[float64]float64 // SinkGroupByVal
}

func newSinkAcc(s *ProgramSink) *sinkAcc {
	a := &sinkAcc{s: s}
	switch SinkKind(s.Kind) {
	case SinkAgg:
		a.acc = s.agg.Init
	case SinkAggCol, SinkGroupByRow:
		a.vec = make([]float64, s.rows*s.cols)
		for i := range a.vec {
			a.vec[i] = s.agg.Init
		}
	case SinkCrossProd:
		a.vec = make([]float64, s.rows*s.cols)
		if s.f1 != nil {
			init := aggInitFor(s.f2)
			for i := range a.vec {
				a.vec[i] = init
			}
		}
	case SinkTable:
		a.table = make(map[float64]int64)
	case SinkGroupByVal:
		a.byVal = make(map[float64]float64)
	default:
		panic(fmt.Sprintf("core: accumulator for unresolved sink kind %d", s.Kind))
	}
	return a
}

// fold folds one Pcache chunk of cr rows into the worker-local partial: in is
// the chunk of the sink's input A, lab the chunk of its input B (nil for the
// one-input kinds).
func (a *sinkAcc) fold(in, lab []float64, cr int) error {
	s := a.s
	a.used = true
	nc := s.ncolA
	switch SinkKind(s.Kind) {
	case SinkAgg:
		a.acc = s.agg.StepV(a.acc, in[:cr*nc])

	case SinkAggCol:
		if s.agg == AggSum {
			for r := 0; r < cr; r++ {
				row := in[r*nc : (r+1)*nc]
				for j, x := range row {
					a.vec[j] += x
				}
			}
		} else {
			f := s.agg
			for r := 0; r < cr; r++ {
				row := in[r*nc : (r+1)*nc]
				for j, x := range row {
					a.vec[j] = f.Step(a.vec[j], x)
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
				grow := a.vec[g*nc : (g+1)*nc]
				for j, x := range row {
					grow[j] += x
				}
			}
		} else {
			f := s.agg
			for r := 0; r < cr; r++ {
				g := int(lab[r])
				row := in[r*nc : (r+1)*nc]
				grow := a.vec[g*nc : (g+1)*nc]
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
			// mirrored once in partial.
			blas.Syrk(cr, pa, in, pa, a.vec, pa)
		case s.f1 == nil:
			blas.GemmTA(cr, pb, pa, in, pa, lab, pb, a.vec, pb)
		default:
			f1, f2 := s.f1.F, s.f2.F
			for r := 0; r < cr; r++ {
				arow := in[r*pa : (r+1)*pa]
				brow := lab[r*pb : (r+1)*pb]
				for i, av := range arow {
					crow := a.vec[i*pb : (i+1)*pb]
					for j, bv := range brow {
						crow[j] = f2(f1(av, bv), crow[j])
					}
				}
			}
		}

	case SinkTable:
		for _, v := range in[:cr*nc] {
			a.table[v]++
		}

	case SinkGroupByVal:
		f := s.agg
		for _, v := range in[:cr*nc] {
			acc, ok := a.byVal[v]
			if !ok {
				acc = f.Init
			}
			a.byVal[v] = f.Step(acc, v)
		}
	}
	return nil
}

// merge combines another worker's partial into this one.
func (a *sinkAcc) merge(o *sinkAcc) {
	if !o.used {
		return
	}
	s := a.s
	switch SinkKind(s.Kind) {
	case SinkAgg:
		if a.used {
			a.acc = s.agg.Combine(a.acc, o.acc)
		} else {
			a.acc = o.acc
		}
	case SinkAggCol, SinkGroupByRow:
		if a.used {
			for i := range a.vec {
				a.vec[i] = s.agg.Combine(a.vec[i], o.vec[i])
			}
		} else {
			copy(a.vec, o.vec)
		}
	case SinkCrossProd:
		if s.f1 == nil {
			for i, v := range o.vec {
				a.vec[i] += v
			}
		} else {
			f2 := s.f2.F
			for i, v := range o.vec {
				if a.used {
					a.vec[i] = f2(v, a.vec[i])
				} else {
					a.vec[i] = v
				}
			}
		}
	case SinkTable:
		for k, c := range o.table {
			a.table[k] += c
		}
	case SinkGroupByVal:
		f := s.agg
		for k, v := range o.byVal {
			if acc, ok := a.byVal[k]; ok {
				a.byVal[k] = f.Combine(acc, v)
			} else {
				a.byVal[k] = v
			}
		}
	}
	a.used = true
}

// partial snapshots the combined reduction as a raw SinkPartial: what
// Sink.PublishRaw installs locally and what a shard worker ships. Symmetric
// crossprods are mirrored here, so partials always arrive symmetric. When no
// rows were folded the reduction stays at the fold identity, matching R's
// empty reductions (sum(c()) == 0, min(c()) == Inf).
func (a *sinkAcc) partial() *SinkPartial {
	s := a.s
	p := &SinkPartial{Used: a.used, R: s.rows, C: s.cols}
	switch SinkKind(s.Kind) {
	case SinkAgg:
		p.Data = []float64{a.acc}
	case SinkAggCol, SinkGroupByRow:
		p.Data = a.vec
	case SinkCrossProd:
		if s.sym {
			blas.SymmetrizeLower(s.rows, a.vec, s.rows)
		}
		p.Data = a.vec
	case SinkTable:
		p.Keys = sortedKeys(a.table)
		p.Counts = make([]int64, len(p.Keys))
		for i, k := range p.Keys {
			p.Counts[i] = a.table[k]
		}
		p.C, p.Data = len(p.Keys), append([]float64(nil), p.Keys...)
	case SinkGroupByVal:
		p.Keys = sortedKeysF(a.byVal)
		p.Folds = make([]float64, len(p.Keys))
		for i, k := range p.Keys {
			p.Folds[i] = a.byVal[k]
		}
		p.C, p.Data = len(p.Keys), append([]float64(nil), p.Folds...)
	}
	return p
}

// payload snapshots a finished sink's published result for the result cache
// and for within-pass duplicate sinks (nil if the sink has not finished). The
// snapshot is a clone: the caller's dense stays private to whoever holds the
// sink.
func (s *Sink) payload() *sinkPayload {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return nil
	}
	p := &sinkPayload{keys: s.keys, counts: s.counts, folds: s.folds, result: s.result}
	return p.clone()
}

// publishPayload installs a payload snapshot as this sink's result — the
// serve path for cache hits and within-pass duplicate unification. The sink
// takes ownership of pl (callers pass a clone).
func (s *Sink) publishPayload(pl *sinkPayload) {
	if pl == nil {
		return
	}
	s.mu.Lock()
	s.result = pl.result
	s.keys = pl.keys
	s.counts = pl.counts
	s.folds = pl.folds
	s.done = true
	s.mu.Unlock()
}
