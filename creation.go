package flashr

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/matrix"
)

// Runif creates an n×p matrix of uniform random values in [min, max) — the
// paper's runif.matrix (Table 3). Generation is parallel, and each row draws
// from GenerateSeeded's (seed, row) stream, so the values depend only on the
// seed and the shape: not on the partition size or the worker count.
func (s *Session) Runif(n int64, p int, min, max float64, seed int64) (*FM, error) {
	span := max - min
	return s.GenerateSeeded(n, p, seed, func(rng *rand.Rand, row []float64) {
		for i := range row {
			row[i] = min + span*rng.Float64()
		}
	})
}

// Rnorm creates an n×p matrix of N(mean, sd²) values — rnorm.matrix. Like
// Runif, each row draws from GenerateSeeded's (seed, row) stream.
func (s *Session) Rnorm(n int64, p int, mean, sd float64, seed int64) (*FM, error) {
	return s.GenerateSeeded(n, p, seed, func(rng *rand.Rand, row []float64) {
		for i := range row {
			row[i] = mean + sd*rng.NormFloat64()
		}
	})
}

// leaf generates a materialized n×p engine leaf, filling partitions in
// parallel. On a plan-only session it checks the same shape and returns a
// zero-storage placeholder of it instead.
func (s *Session) leaf(n int64, p int, fill func(start int64, rows int, buf []float64)) (*core.Mat, error) {
	if s.plan == nil {
		return s.eng.Generate(n, p, matrix.F64, fill)
	}
	if n < 0 || p <= 0 {
		return nil, fmt.Errorf("matrix: invalid shape %dx%d", n, p)
	}
	return core.NewConst(n, p, 0), nil
}

func (s *Session) leafFM(m *core.Mat, err error) (*FM, error) {
	if err != nil {
		return nil, err
	}
	return s.bigFM(m), nil
}

// fromDense copies an in-memory dense matrix into a tall engine leaf.
func (s *Session) fromDense(d *dense.Dense) (*core.Mat, error) {
	return s.leaf(int64(d.R), d.C, func(start int64, rows int, buf []float64) {
		copy(buf, d.Data[int(start)*d.C:(int(start)+rows)*d.C])
	})
}

// ConstMat creates an n×p virtual constant matrix (zero storage, zero I/O —
// rep.int(1, n) in the paper's k-means compiles to this).
func (s *Session) ConstMat(n int64, p int, v float64) *FM {
	return s.bigFM(core.NewConst(n, p, v))
}

// Ones is ConstMat(n, p, 1).
func (s *Session) Ones(n int64, p int) *FM { return s.ConstMat(n, p, 1) }

// Zeros is ConstMat(n, p, 0).
func (s *Session) Zeros(n int64, p int) *FM { return s.ConstMat(n, p, 0) }

// SeqVec creates an n×1 matrix holding 0, 1, …, n-1.
func (s *Session) SeqVec(n int64) (*FM, error) {
	return s.leafFM(s.leaf(n, 1, func(start int64, rows int, buf []float64) {
		for r := 0; r < rows; r++ {
			buf[r] = float64(start + int64(r))
		}
	}))
}

// GenerateMat creates a materialized n×p matrix by calling gen(i, j) for
// every element (generation runs partition-parallel).
func (s *Session) GenerateMat(n int64, p int, gen func(i int64, j int) float64) (*FM, error) {
	return s.leafFM(s.leaf(n, p, func(start int64, rows int, buf []float64) {
		for r := 0; r < rows; r++ {
			for c := 0; c < p; c++ {
				buf[r*p+c] = gen(start+int64(r), c)
			}
		}
	}))
}

// GenerateSeeded creates a materialized n×p matrix where every row is
// filled by fill with a private RNG derived deterministically from (seed,
// row index), starting from a zeroed row. Two matrices generated with the
// same seed see identical per-row streams, so features and labels built from
// the same seed stay consistent — regardless of partitioning or scheduling.
func (s *Session) GenerateSeeded(n int64, p int, seed int64, fill func(rng *rand.Rand, row []float64)) (*FM, error) {
	return s.leafFM(s.leaf(n, p, func(start int64, rows int, buf []float64) {
		src := &splitmixSource{}
		rng := rand.New(src)
		for r := 0; r < rows; r++ {
			src.state = uint64(mix64(seed, start+int64(r)))
			// The worker's buffer holds whatever partition it filled last;
			// a fill that writes only some cells must still see zeros.
			row := buf[r*p : (r+1)*p]
			clear(row)
			fill(rng, row)
		}
	}))
}

// splitmixSource is a cheap reseedable rand.Source64 (math/rand's default
// source pays a ~600-word seeding loop, far too slow to reseed per row).
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// mix64 combines a seed and a row index with a splitmix64 finalizer so
// nearby rows get decorrelated RNG streams.
func mix64(seed, row int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(row) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// FromDense copies an in-memory dense matrix into a tall engine matrix.
func (s *Session) FromDense(d *dense.Dense) (*FM, error) {
	return s.leafFM(s.fromDense(d))
}

// rowsShapeErr validates row slices destined for a matrix: at least one
// row, all rows the same width (dense.FromRows panics on ragged input; the
// public creation surface reports it as a typed error instead).
func rowsShapeErr(op string, rows [][]float64) error {
	if len(rows) == 0 {
		return errf(op, nil, "no rows")
	}
	w := len(rows[0])
	for i, r := range rows {
		if len(r) != w {
			return errf(op, nil, "ragged rows: row %d has %d values, row 0 has %d", i, len(r), w)
		}
	}
	return nil
}

// TryFromRows builds a tall matrix from row slices, reporting ragged or
// empty input as a typed error.
func (s *Session) TryFromRows(rows [][]float64) (*FM, error) {
	if err := rowsShapeErr("from.rows", rows); err != nil {
		return nil, err
	}
	return s.FromDense(dense.FromRows(rows))
}

// FromRows builds a tall matrix from row slices.
func (s *Session) FromRows(rows [][]float64) (*FM, error) {
	return s.TryFromRows(rows)
}

// FromVec builds an n×1 tall matrix from a slice.
func (s *Session) FromVec(v []float64) (*FM, error) {
	return s.FromDense(dense.FromSlice(len(v), 1, v))
}

// Small wraps an in-memory matrix as a small FM (sink-class operand, e.g.
// initial cluster centers or model weights).
func (s *Session) Small(d *dense.Dense) *FM { return s.smallFM(d) }

// TrySmallFromRows builds a small FM from row slices, reporting ragged or
// empty input as a typed error.
func (s *Session) TrySmallFromRows(rows [][]float64) (*FM, error) {
	if err := rowsShapeErr("small.from.rows", rows); err != nil {
		return nil, err
	}
	return s.smallFM(dense.FromRows(rows)), nil
}

// SmallFromRows is TrySmallFromRows's panicking shorthand.
func (s *Session) SmallFromRows(rows [][]float64) *FM {
	return must(s.TrySmallFromRows(rows))
}

// LoadCSV reads a delimiter-separated text file of numbers into a tall
// matrix — the paper's load.dense (Table 3). sep "" splits on any
// whitespace. The file streams through partition-sized buffers, so matrices
// larger than memory load directly onto the SSD array in an EM session.
func (s *Session) LoadCSV(path, sep string) (*FM, error) {
	if s.plan != nil {
		return nil, ErrPlanOnly
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// First pass: count rows and validate the column count.
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int64
	ncol := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		c := countFields(line, sep)
		if ncol == -1 {
			ncol = c
		} else if c != ncol {
			return nil, fmt.Errorf("flashr: %s row %d has %d fields, want %d", path, n+1, c, ncol)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("flashr: %s is empty", path)
	}
	st, err := s.eng.NewStore(n, ncol)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	sc = bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	partRows := st.PartRows()
	buf := make([]float64, partRows*ncol)
	row := 0
	part := 0
	flush := func(rows int) error {
		if rows == 0 {
			return nil
		}
		if err := st.WritePart(part, buf[:rows*ncol]); err != nil {
			return err
		}
		part++
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := parseFields(line, sep, buf[row*ncol:(row+1)*ncol]); err != nil {
			return nil, fmt.Errorf("flashr: %s: %w", path, err)
		}
		row++
		if row == partRows {
			if err := flush(row); err != nil {
				return nil, err
			}
			row = 0
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(row); err != nil {
		return nil, err
	}
	return s.bigFM(core.NewLeaf(st, matrix.F64)), nil
}

// SaveCSV materializes x and writes it as delimiter-separated text. On a
// plan-only session it fails with ErrPlanOnly before creating the file.
func SaveCSV(x *FM, path, sep string) error {
	if sep == "" {
		sep = ","
	}
	d, err := x.AsDense()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < d.R; i++ {
		row := d.Row(i)
		for j, v := range row {
			if j > 0 {
				w.WriteString(sep)
			}
			w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func countFields(line, sep string) int {
	if sep == "" {
		return len(strings.Fields(line))
	}
	return strings.Count(line, sep) + 1
}

func parseFields(line, sep string, dst []float64) error {
	var parts []string
	if sep == "" {
		parts = strings.Fields(line)
	} else {
		parts = strings.Split(line, sep)
	}
	if len(parts) != len(dst) {
		return fmt.Errorf("row has %d fields, want %d", len(parts), len(dst))
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return fmt.Errorf("field %d: %w", i, err)
		}
		dst[i] = v
	}
	return nil
}
