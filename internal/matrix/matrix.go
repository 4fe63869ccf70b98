// Package matrix implements FlashR's dense matrix storage (§3.2 of the
// paper): tall matrices physically partitioned into power-of-two-row I/O
// partitions, stored either in NUMA-aware memory chunks or on the simulated
// SSD array (SAFS).
//
// There is one format, in memory and on disk: each I/O partition is one
// flat row-major extent (rows × ncol float64), whatever the width. The
// paper's column-major partitions (Fig. 4a) and 32-column block matrices
// (Fig. 4c) are not reproduced; the engine treats transpose as a zero-copy
// view, and its Pcache chunking supplies the cache blocking.
package matrix

import "fmt"

// DType is the logical element type of a matrix. All storage is physically
// float64 (as in R, where logicals and integers promote to double on most
// arithmetic); the logical type selects semantics such as which multiply
// kernel Table 2 of the paper prescribes (BLAS for floats, the generalized
// inner-product GenOp for integers).
type DType int8

const (
	// F64 is IEEE double precision.
	F64 DType = iota
	// I64 marks integer-valued matrices.
	I64
	// Bool marks logical matrices (0/1 valued).
	Bool
)

// String returns the R-flavored name of the type.
func (d DType) String() string {
	switch d {
	case F64:
		return "double"
	case I64:
		return "integer"
	case Bool:
		return "logical"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// checkPartRows rejects an I/O partition height that is not a power of
// two (§3.2.1). The engine fixes the height (core.Config.PartRows); a store
// takes it from the engine or from a saved matrix's metadata.
func checkPartRows(partRows int) error {
	if partRows <= 0 || partRows&(partRows-1) != 0 {
		return fmt.Errorf("matrix: partition rows %d is not a power of two", partRows)
	}
	return nil
}

// NumParts returns how many I/O partitions a matrix of nrow rows has under
// the given partition height.
func NumParts(nrow int64, partRows int) int {
	return int((nrow + int64(partRows) - 1) / int64(partRows))
}

// PartRowsOf returns the number of valid rows in partition i (the last
// partition may be short).
func PartRowsOf(nrow int64, partRows, i int) int {
	start := int64(i) * int64(partRows)
	rows := nrow - start
	if rows > int64(partRows) {
		rows = int64(partRows)
	}
	if rows < 0 {
		rows = 0
	}
	return int(rows)
}

// Store is materialized tall-matrix data, addressed by I/O partition. All
// ReadPart/WritePart buffers are row-major rows×ncol, the same order the
// partition is stored in. Implementations: MemStore (NUMA chunk pools),
// SAFSStore (one striped file on the SSD array) and the shard package's
// RemoteStore (partitions held by worker processes).
type Store interface {
	// NRow is the number of rows (the partition dimension).
	NRow() int64
	// NCol is the number of columns.
	NCol() int
	// PartRows is the I/O partition height (power of two).
	PartRows() int
	// NumParts is the number of I/O partitions.
	NumParts() int
	// ReadPart fills dst (rows(i)×NCol row-major) with partition i.
	ReadPart(i int, dst []float64) error
	// WritePart stores partition i from src (rows(i)×NCol row-major).
	WritePart(i int, src []float64) error
	// Kind identifies the backend ("mem", "safs", "shard").
	Kind() string
	// Free releases backing resources (pool chunks, SAFS files).
	Free() error
}

// rowsOf is a helper shared by the store implementations.
func rowsOf(s Store, i int) int { return PartRowsOf(s.NRow(), s.PartRows(), i) }

// CheckPart validates a partition index against a store.
func CheckPart(s Store, i int) error {
	if i < 0 || i >= s.NumParts() {
		return fmt.Errorf("matrix: partition %d out of range [0,%d) for %dx%d %s store",
			i, s.NumParts(), s.NRow(), s.NCol(), s.Kind())
	}
	return nil
}

// GatherCols copies the given columns of a row-major rows×cols buffer into a
// row-major rows×len(cols) buffer.
func GatherCols(dst, src []float64, rows, srcCols int, cols []int) {
	k := len(cols)
	for r := 0; r < rows; r++ {
		so := r * srcCols
		do := r * k
		for j, c := range cols {
			dst[do+j] = src[so+c]
		}
	}
}
