// Package sparse implements the sparse-matrix support FlashR integrates for
// large sparse inputs: compressed sparse row (CSR) matrices and
// semi-external-memory sparse-matrix × dense-matrix multiplication (SpMM)
// in the style of Zheng et al., "Semi-External Memory Sparse Matrix
// Multiplication on Billion-node Graphs" (TPDS 2016), the system cited by
// §3 of the FlashR paper.
//
// Semi-external memory means the sparse matrix streams from the SSD array
// row-block by row-block while the (skinny) dense operand and the result
// stay in memory — the access pattern that makes billion-edge multiplies
// feasible on one machine.
package sparse

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dense"
	"repro/internal/safs"
)

// CSR is an in-memory compressed sparse row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64 // len Rows+1
	ColIdx     []int32
	Val        []float64
}

// NewCSR builds a CSR from coordinate triplets (duplicates are summed).
func NewCSR(rows, cols int, ri, ci []int, v []float64) (*CSR, error) {
	if len(ri) != len(ci) || len(ri) != len(v) {
		return nil, fmt.Errorf("sparse: triplet lengths %d/%d/%d differ", len(ri), len(ci), len(v))
	}
	type trip struct {
		r, c int
		v    float64
	}
	ts := make([]trip, len(ri))
	for i := range ri {
		if ri[i] < 0 || ri[i] >= rows || ci[i] < 0 || ci[i] >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", ri[i], ci[i], rows, cols)
		}
		ts[i] = trip{ri[i], ci[i], v[i]}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].r != ts[b].r {
			return ts[a].r < ts[b].r
		}
		return ts[a].c < ts[b].c
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	for i := 0; i < len(ts); {
		j := i
		var sum float64
		for ; j < len(ts) && ts[j].r == ts[i].r && ts[j].c == ts[i].c; j++ {
			sum += ts[j].v
		}
		m.ColIdx = append(m.ColIdx, int32(ts[i].c))
		m.Val = append(m.Val, sum)
		m.RowPtr[ts[i].r+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Row returns the column indices and values of row r.
func (m *CSR) Row(r int) ([]int32, []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// MulDense computes A %*% B for dense B (Cols×k) into a dense Rows×k
// result, in parallel over row blocks.
func (m *CSR) MulDense(b *dense.Dense, workers int) (*dense.Dense, error) {
	if b.R != m.Cols {
		return nil, fmt.Errorf("sparse: SpMM %dx%d by %dx%d", m.Rows, m.Cols, b.R, b.C)
	}
	out := dense.New(m.Rows, b.C)
	if workers <= 0 {
		workers = 4
	}
	var next atomic.Int64
	const block = 1024
	nblocks := (m.Rows + block - 1) / block
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				bi := int(next.Add(1) - 1)
				if bi >= nblocks {
					return
				}
				r0 := bi * block
				r1 := min(r0+block, m.Rows)
				spmmRows(m, b, out, r0, r1)
			}
		}()
	}
	wg.Wait()
	return out, nil
}

func spmmRows(m *CSR, b, out *dense.Dense, r0, r1 int) {
	k := b.C
	for r := r0; r < r1; r++ {
		orow := out.Row(r)
		cols, vals := m.Row(r)
		for i, c := range cols {
			v := vals[i]
			brow := b.Row(int(c))
			for j := 0; j < k; j++ {
				orow[j] += v * brow[j]
			}
		}
	}
}

// RandomGraph generates a sparse random adjacency-like matrix with an
// average of degree entries per row (used to synthesize the PageGraph-style
// spectral substrate).
func RandomGraph(n, degree int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for r := 0; r < n; r++ {
		d := 1 + rng.Intn(2*degree)
		seen := map[int32]bool{}
		for i := 0; i < d; i++ {
			// Preferential-attachment-ish skew: favor low ids.
			c := int32(float64(n) * rng.Float64() * rng.Float64())
			if c >= int32(n) {
				c = int32(n - 1)
			}
			if seen[c] {
				continue
			}
			seen[c] = true
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, 1)
			m.RowPtr[r+1]++
		}
	}
	for r := 0; r < n; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// --- Semi-external-memory SpMM -------------------------------------------

// SEMatrix is a CSR matrix stored on the SSD array. Row pointers stay in
// memory (O(rows) — the "semi" part); column indices and values stream. The
// array file holds only what streams: ColIdx (padded to 8 bytes), then Val.
type SEMatrix struct {
	fs     *safs.FS
	file   *safs.File
	Rows   int
	Cols   int
	RowPtr []int64
	valOff int64 // byte offset of the Val section; ColIdx starts at 0
}

// WriteSE stores a CSR's column indices and values on the SSD array.
func WriteSE(fs *safs.FS, name string, m *CSR) (*SEMatrix, error) {
	nnz := int64(m.NNZ())
	colBytes := pad8(nnz * 4)
	f, err := fs.Create(name, colBytes+nnz*8)
	if err != nil {
		return nil, err
	}
	cb := make([]byte, colBytes)
	for i, c := range m.ColIdx {
		binary.LittleEndian.PutUint32(cb[i*4:], uint32(c))
	}
	if err := f.WriteAt(cb, 0); err != nil {
		return nil, err
	}
	vb := make([]byte, nnz*8)
	for i, v := range m.Val {
		binary.LittleEndian.PutUint64(vb[i*8:], floatBits(v))
	}
	if err := f.WriteAt(vb, colBytes); err != nil {
		return nil, err
	}
	return &SEMatrix{
		fs: fs, file: f, Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		valOff: colBytes,
	}, nil
}

// NNZ returns the stored entry count.
func (m *SEMatrix) NNZ() int64 { return m.RowPtr[m.Rows] }

// MulDense computes A %*% B semi-externally: row blocks of the sparse
// matrix stream from SSD while B and the result stay in memory. Parallel
// across row blocks with sequential block dispatch, mirroring the engine's
// scheduler.
func (m *SEMatrix) MulDense(b *dense.Dense, workers int) (*dense.Dense, error) {
	if b.R != m.Cols {
		return nil, fmt.Errorf("sparse: SE SpMM %dx%d by %dx%d", m.Rows, m.Cols, b.R, b.C)
	}
	out := dense.New(m.Rows, b.C)
	if workers <= 0 {
		workers = 4
	}
	const blockRows = 8192
	nblocks := (m.Rows + blockRows - 1) / blockRows
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var colBuf []byte
			var valBuf []byte
			for {
				bi := int(next.Add(1) - 1)
				if bi >= nblocks {
					return
				}
				r0 := bi * blockRows
				r1 := min(r0+blockRows, m.Rows)
				lo, hi := m.RowPtr[r0], m.RowPtr[r1]
				if lo == hi {
					continue
				}
				cn := int(hi-lo) * 4
				vn := int(hi-lo) * 8
				if cap(colBuf) < cn {
					colBuf = make([]byte, cn)
				}
				if cap(valBuf) < vn {
					valBuf = make([]byte, vn)
				}
				if err := m.file.ReadAt(colBuf[:cn], lo*4); err != nil {
					errs[w] = err
					return
				}
				if err := m.file.ReadAt(valBuf[:vn], m.valOff+lo*8); err != nil {
					errs[w] = err
					return
				}
				for r := r0; r < r1; r++ {
					orow := out.Row(r)
					for e := m.RowPtr[r]; e < m.RowPtr[r+1]; e++ {
						i := int(e - lo)
						c := binary.LittleEndian.Uint32(colBuf[i*4:])
						v := bitsFloat(binary.LittleEndian.Uint64(valBuf[i*8:]))
						brow := b.Row(int(c))
						for j := range orow {
							orow[j] += v * brow[j]
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }
