package flashr

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/safs"
)

// matrixMeta is the sidecar metadata stored next to a named matrix on the
// SSD array, so matrices can be reopened across sessions without the caller
// tracking shapes (what SAFS keeps in its own metadata files).
//
// Version history:
//
//	v1: shape metadata only.
//	v2: adds Checksums — the per-stripe CRC32C table of every underlying
//	    SAFS file, keyed by file name (the matrix name for a flat store,
//	    "<name>.bNN" per block for a blocked one). Reopening a v2 matrix
//	    restores the tables so every read is verified; v1 files reopen
//	    checksum-free and are verified again from the first rewrite on.
type matrixMeta struct {
	NRow     int64  `json:"nrow"`
	NCol     int    `json:"ncol"`
	PartRows int    `json:"part_rows"`
	Blocks   int    `json:"blocks"` // 0 = flat file, else 32-column TAS blocks
	DType    string `json:"dtype"`
	Version  int    `json:"version"`
	// Checksums maps each underlying SAFS file to its per-stripe CRC32C
	// table (v2+; absent in v1 sidecars).
	Checksums map[string][]uint32 `json:"checksums,omitempty"`
}

// metaVersion is the sidecar version this build writes.
const metaVersion = 2

func metaName(name string) string { return name + ".meta" }

// decodeMatrixMeta parses and validates a sidecar. It accepts every version
// up to metaVersion (older sidecars simply lack the newer fields) and
// rejects sidecars from the future, malformed JSON, and impossible shapes —
// a corrupted sidecar must fail loudly here, not as an index panic later.
func decodeMatrixMeta(name string, raw []byte) (matrixMeta, error) {
	var meta matrixMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return meta, fmt.Errorf("flashr: corrupt metadata for %q: %w", name, err)
	}
	if meta.Version > metaVersion {
		return meta, fmt.Errorf("flashr: %q stored with sidecar version %d, this build reads up to %d",
			name, meta.Version, metaVersion)
	}
	if meta.NRow < 0 || meta.NCol <= 0 || meta.PartRows <= 0 || meta.Blocks < 0 {
		return meta, fmt.Errorf("flashr: corrupt metadata for %q: impossible shape %dx%d (part_rows=%d, blocks=%d)",
			name, meta.NRow, meta.NCol, meta.PartRows, meta.Blocks)
	}
	if meta.Blocks > 0 && meta.Blocks != matrix.NumBlockCols(meta.NCol) {
		return meta, fmt.Errorf("flashr: corrupt metadata for %q: %d blocks for %d columns",
			name, meta.Blocks, meta.NCol)
	}
	return meta, nil
}

// metaFileNames lists the underlying SAFS file names of a named matrix.
func (m matrixMeta) metaFileNames(name string) []string {
	if m.Blocks == 0 {
		return []string{name}
	}
	names := make([]string, m.Blocks)
	for b := range names {
		names[b] = fmt.Sprintf("%s.b%02d", name, b)
	}
	return names
}

// SaveNamedCtx materializes x and stores it under the given name on the
// session's SSD array (EM sessions only), with a metadata sidecar; reopen
// with OpenNamed — from this session or a later one over the same drives.
// The materialization pass, and the partition-by-partition copy onto the
// array, both stop with ctx.Err() when ctx is cancelled (a partially
// written name is overwritten by the next save).
func (s *Session) SaveNamedCtx(ctx context.Context, x *FM, name string) error {
	if s.fs == nil {
		return fmt.Errorf("flashr: SaveNamed needs a session with an SSD array")
	}
	if err := x.MaterializeCtx(ctx); err != nil {
		return err
	}
	if !x.isBig() {
		d, err := x.resolveSmall()
		if err != nil {
			return err
		}
		big, err := s.FromDense(d)
		if err != nil {
			return err
		}
		return s.SaveNamedCtx(ctx, big, name)
	}
	if x.trans {
		return fmt.Errorf("flashr: SaveNamed of a transposed view; save the base matrix")
	}
	src := x.big.Store()
	nrow, ncol := src.NRow(), src.NCol()
	partRows := src.PartRows()
	blocks := 0
	if ncol > matrix.BlockCols {
		blocks = matrix.NumBlockCols(ncol)
	}
	// Destination store(s) under the chosen name.
	var dst matrix.Store
	var files []*matrix.SAFSStore
	var err error
	if blocks > 0 {
		bs := make([]matrix.Store, blocks)
		for b := 0; b < blocks; b++ {
			st, serr := matrix.NewSAFSStore(s.fs, fmt.Sprintf("%s.b%02d", name, b),
				nrow, matrix.BlockWidth(ncol, b), partRows)
			if serr != nil {
				return serr
			}
			bs[b] = st
			files = append(files, st)
		}
		dst, err = matrix.NewBlockedStore(bs)
		if err != nil {
			return err
		}
	} else {
		st, serr := matrix.NewSAFSStore(s.fs, name, nrow, ncol, partRows)
		if serr != nil {
			return serr
		}
		dst = st
		files = append(files, st)
	}
	buf := make([]float64, partRows*ncol)
	for p := 0; p < src.NumParts(); p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := matrix.PartRowsOf(nrow, partRows, p)
		if err := src.ReadPart(p, buf[:rows*ncol]); err != nil {
			return err
		}
		if err := dst.WritePart(p, buf[:rows*ncol]); err != nil {
			return err
		}
	}
	meta := matrixMeta{
		NRow: nrow, NCol: ncol, PartRows: partRows, Blocks: blocks,
		DType: x.big.DType().String(), Version: metaVersion,
		Checksums: make(map[string][]uint32, len(files)),
	}
	// Persist the per-stripe CRC32C tables so a later session verifies its
	// reads against the data written now (every stripe was just written, so
	// every table is complete).
	for _, st := range files {
		sums, complete := st.File().Checksums()
		if !complete {
			return fmt.Errorf("flashr: SaveNamed %q: incomplete checksum table for %q", name, st.File().Name())
		}
		meta.Checksums[st.File().Name()] = sums
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	mf, err := s.fs.Create(metaName(name), int64(len(raw)))
	if err != nil {
		return err
	}
	return mf.WriteAt(raw, 0)
}

// OpenNamed opens a matrix previously stored with SaveNamedCtx (possibly by a
// different process over the same drive directories).
func (s *Session) OpenNamed(name string) (*FM, error) {
	if s.fs == nil {
		return nil, fmt.Errorf("flashr: OpenNamed needs a session with an SSD array")
	}
	mf, err := s.fs.OpenFile(metaName(name))
	if err != nil {
		return nil, fmt.Errorf("flashr: no metadata for %q: %w", name, err)
	}
	raw := make([]byte, mf.Size())
	if err := mf.ReadAt(raw, 0); err != nil {
		return nil, err
	}
	meta, err := decodeMatrixMeta(name, raw)
	if err != nil {
		return nil, err
	}
	if meta.PartRows != s.eng.PartRows() {
		return nil, fmt.Errorf("flashr: %q stored with partition height %d, session uses %d",
			name, meta.PartRows, s.eng.PartRows())
	}
	// restore reinstates a file's persisted checksum table (v2 sidecars), so
	// every subsequent read of the reopened matrix is verified. v1 sidecars
	// carry no table: the file reopens checksum-free.
	restore := func(f *safs.File) error {
		sums, ok := meta.Checksums[f.Name()]
		if !ok {
			return nil
		}
		if err := f.RestoreChecksums(sums); err != nil {
			return fmt.Errorf("flashr: %q: %w", name, err)
		}
		return nil
	}
	var st matrix.Store
	if meta.Blocks > 0 {
		bs := make([]matrix.Store, meta.Blocks)
		for b := 0; b < meta.Blocks; b++ {
			bst, berr := matrix.OpenSAFSStore(s.fs, fmt.Sprintf("%s.b%02d", name, b),
				meta.NRow, matrix.BlockWidth(meta.NCol, b), meta.PartRows)
			if berr != nil {
				return nil, berr
			}
			if err := restore(bst.File()); err != nil {
				return nil, err
			}
			bs[b] = bst
		}
		st, err = matrix.NewBlockedStore(bs)
	} else {
		var fst *matrix.SAFSStore
		fst, err = matrix.OpenSAFSStore(s.fs, name, meta.NRow, meta.NCol, meta.PartRows)
		if err == nil {
			if rerr := restore(fst.File()); rerr != nil {
				return nil, rerr
			}
			st = fst
		}
	}
	if err != nil {
		return nil, err
	}
	dt := matrix.F64
	switch meta.DType {
	case "integer":
		dt = matrix.I64
	case "logical":
		dt = matrix.Bool
	}
	m := core.NewLeaf(st, dt)
	s.noteNamed(name, m)
	return s.bigFM(m), nil
}

// SetNamed overwrites the named matrix with x (creating it if absent) and
// invalidates every cached result built over matrices previously opened from
// that name — the persistence analogue of []<- mutation. Handles opened from
// the name before the overwrite must be reopened: their restored checksum
// tables describe the replaced bytes, so further reads through them fail
// verification loudly instead of returning stale or mixed data (and the
// invalidation above guarantees the result cache never masks that error with
// a pre-overwrite value).
func (s *Session) SetNamed(x *FM, name string) error {
	if s.fs == nil {
		return fmt.Errorf("flashr: SetNamed needs a session with an SSD array")
	}
	// Snapshot the leaves backed by the old files before they change.
	s.mu.Lock()
	old := append([]*core.Mat(nil), s.named[name]...)
	s.mu.Unlock()
	// Drop the old files (data + sidecar) so the rewrite starts clean even
	// when the new shape needs fewer block files than the old one.
	if mf, err := s.fs.OpenFile(metaName(name)); err == nil {
		raw := make([]byte, mf.Size())
		if rerr := mf.ReadAt(raw, 0); rerr == nil {
			if meta, derr := decodeMatrixMeta(name, raw); derr == nil {
				for _, fname := range meta.metaFileNames(name) {
					s.fs.Remove(fname)
				}
			}
		}
		s.fs.Remove(metaName(name))
	}
	if err := s.SaveNamedCtx(context.Background(), x, name); err != nil {
		return err
	}
	for _, m := range old {
		s.eng.NoteMutation(m)
	}
	return nil
}

// VerifyNamedCtx scrubs a matrix stored with SaveNamedCtx against the
// checksum tables in its sidecar, returning one report per underlying SAFS
// file (one for a flat matrix, one per 32-column block for a wide one).
// Stripes a v1 sidecar has no checksums for are reported as skipped, not
// corrupt. The scan reads segment bytes directly — no token bucket, no
// retries — so it is off the simulated bandwidth budget. It stops between
// files with ctx.Err() when ctx is cancelled, returning the reports
// completed so far.
func (s *Session) VerifyNamedCtx(ctx context.Context, name string) ([]safs.VerifyReport, error) {
	if s.fs == nil {
		return nil, fmt.Errorf("flashr: VerifyNamed needs a session with an SSD array")
	}
	mf, err := s.fs.OpenFile(metaName(name))
	if err != nil {
		return nil, fmt.Errorf("flashr: no metadata for %q: %w", name, err)
	}
	raw := make([]byte, mf.Size())
	if err := mf.ReadAt(raw, 0); err != nil {
		return nil, err
	}
	meta, err := decodeMatrixMeta(name, raw)
	if err != nil {
		return nil, err
	}
	var reports []safs.VerifyReport
	for _, fname := range meta.metaFileNames(name) {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		f, err := s.fs.OpenFile(fname)
		if err != nil {
			return reports, err
		}
		if sums, ok := meta.Checksums[fname]; ok {
			if err := f.RestoreChecksums(sums); err != nil {
				return reports, fmt.Errorf("flashr: %q: %w", name, err)
			}
		}
		rep, err := f.Verify()
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// ListNamed returns the names of matrices stored with SaveNamedCtx on the
// session's array.
func (s *Session) ListNamed() []string {
	if s.fs == nil {
		return nil
	}
	var out []string
	for _, f := range s.fs.List() {
		const suffix = ".meta"
		if len(f) > len(suffix) && f[len(f)-len(suffix):] == suffix {
			out = append(out, f[:len(f)-len(suffix)])
		}
	}
	return out
}
