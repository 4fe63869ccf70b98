package flashr

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dense"
)

// Pinned is a retained reference to a materialized result: the backing data
// of a matrix at the moment it was pinned, guaranteed to stay readable until
// Release however the originating FM or session evolves afterwards (frees,
// cache evictions, in-place mutation privatizing the store). Serving layers
// build result handles on it: the result stays engine-resident (on SSD for
// EM sessions) and clients fetch row ranges on demand instead of receiving
// one giant inline rendering.
//
// Tall matrices pin their partitioned store through the engine's refcounted
// store machinery; small results (sink outputs, transposed views, in-memory
// smalls) pin a private dense copy.
type Pinned struct {
	ps       *core.PinnedStore
	d        *dense.Dense
	nrow     int64
	ncol     int64
	released atomic.Bool
}

// PinCtx materializes the matrix (joining the session's pending batch, so a
// flushed batch makes this free) and pins its result. The caller must
// Release the pin exactly once.
func (x *FM) PinCtx(ctx context.Context) (*Pinned, error) {
	if x.s.plan != nil {
		return nil, ErrPlanOnly
	}
	if x.big != nil && !x.trans {
		if err := x.MaterializeCtx(ctx); err != nil {
			return nil, err
		}
		ps, err := x.s.eng.Pin(x.big)
		if err != nil {
			return nil, err
		}
		return &Pinned{ps: ps, nrow: ps.NRow(), ncol: int64(ps.NCol())}, nil
	}
	// Transposed views and small/sink results: gather a private dense copy.
	d, err := x.AsDense()
	if err != nil {
		return nil, err
	}
	if x.big == nil {
		// AsDense on a small/sink returns the shared dense; copy so a later
		// SetElement on the FM cannot mutate pinned data.
		d = d.Clone()
	}
	return &Pinned{d: d, nrow: int64(d.R), ncol: int64(d.C)}, nil
}

// Dim returns (rows, cols) of the pinned result.
func (p *Pinned) Dim() (int64, int64) { return p.nrow, p.ncol }

// Bytes returns the pinned result's logical size.
func (p *Pinned) Bytes() int64 { return p.nrow * p.ncol * 8 }

// Rows returns rows [lo, hi) of the pinned result as a dense matrix.
func (p *Pinned) Rows(lo, hi int64) (*dense.Dense, error) {
	if p.released.Load() {
		return nil, errf("rows", [][2]int64{{p.nrow, p.ncol}}, "read on released pin")
	}
	if lo < 0 || hi > p.nrow || lo > hi {
		return nil, errf("rows", [][2]int64{{p.nrow, p.ncol}}, "range [%d,%d) out of %d rows", lo, hi, p.nrow)
	}
	out := dense.New(int(hi-lo), int(p.ncol))
	if p.d != nil {
		copy(out.Data, p.d.Data[lo*p.ncol:hi*p.ncol])
		return out, nil
	}
	if err := p.ps.ReadRows(lo, hi, out.Data); err != nil {
		return nil, err
	}
	return out, nil
}

// Release drops the pin. Idempotent; data backed by a pinned store becomes
// freeable once every other reference (result cache, the originating Mat) is
// gone too.
func (p *Pinned) Release() error {
	if !p.released.CompareAndSwap(false, true) {
		return nil
	}
	if p.ps != nil {
		return p.ps.Release()
	}
	p.d = nil
	return nil
}
