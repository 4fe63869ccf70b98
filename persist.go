package flashr

import (
	"context"
	"encoding/json"
	"errors"
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
//	    SAFS file, keyed by file name. Reopening a v2 matrix restores the
//	    tables so every read is verified; v1 files reopen checksum-free and
//	    are verified again from the first rewrite on.
//	v3: every named matrix is one flat row-major SAFS file under its own
//	    name, whatever its width. v1/v2 stored matrices wider than 32
//	    columns as "<name>.bNN" files of 32-column blocks (Blocks > 0); this
//	    build refuses those sidecars instead of reading them. Flat v1/v2
//	    sidecars still open.
type matrixMeta struct {
	NRow     int64  `json:"nrow"`
	NCol     int    `json:"ncol"`
	PartRows int    `json:"part_rows"`
	Blocks   int    `json:"blocks,omitempty"` // only read, to refuse v1/v2 block-format sidecars
	DType    string `json:"dtype"`
	Version  int    `json:"version"`
	// Checksums maps the matrix's SAFS file to its per-stripe CRC32C table
	// (v2+; absent in v1 sidecars).
	Checksums map[string][]uint32 `json:"checksums,omitempty"`
}

// metaVersion is the sidecar version this build writes.
const metaVersion = 3

func metaName(name string) string { return name + ".meta" }

// decodeMatrixMeta parses and validates a sidecar. It accepts every version
// up to metaVersion (older sidecars simply lack the newer fields) and
// rejects sidecars from the future, malformed JSON, and impossible shapes —
// a corrupted sidecar must fail loudly here, not as an index panic later.
// A block-format sidecar (Blocks > 0, written by v1/v2 builds for wide
// matrices) is refused with a *Error.
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
	if meta.Blocks > 0 {
		return meta, errf("open.named", [][2]int64{{meta.NRow, int64(meta.NCol)}},
			"%q is stored as %d column blocks (sidecar version %d); this build reads only flat matrices: re-save it from the source data",
			name, meta.Blocks, meta.Version)
	}
	return meta, nil
}

// readMeta reads and decodes the sidecar of a named matrix.
func (s *Session) readMeta(name string) (matrixMeta, error) {
	mf, err := s.fs.OpenFile(metaName(name))
	if err != nil {
		return matrixMeta{}, fmt.Errorf("flashr: no metadata for %q: %w", name, err)
	}
	raw := make([]byte, mf.Size())
	if err := mf.ReadAt(raw, 0); err != nil {
		return matrixMeta{}, err
	}
	return decodeMatrixMeta(name, raw)
}

// restoreChecksums reinstates the persisted checksum table of the matrix's
// file (v2+ sidecars), so every later read of it is verified. v1 sidecars
// carry no table: the file stays checksum-free.
func (m matrixMeta) restoreChecksums(name string, f *safs.File) error {
	sums, ok := m.Checksums[f.Name()]
	if !ok {
		return nil
	}
	if err := f.RestoreChecksums(sums); err != nil {
		return fmt.Errorf("flashr: %q: %w", name, err)
	}
	return nil
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
	meta, err := s.writeNamed(ctx, x, name, name)
	if err != nil {
		return err
	}
	return s.writeMeta(name, meta)
}

// writeNamed materializes x and copies it into the array file file,
// returning the sidecar that describes it under name.
func (s *Session) writeNamed(ctx context.Context, x *FM, name, file string) (matrixMeta, error) {
	if err := x.MaterializeCtx(ctx); err != nil {
		return matrixMeta{}, err
	}
	if !x.isBig() {
		d, err := x.resolveSmall()
		if err != nil {
			return matrixMeta{}, err
		}
		big, err := s.FromDense(d)
		if err != nil {
			return matrixMeta{}, err
		}
		return s.writeNamed(ctx, big, name, file)
	}
	if x.trans {
		return matrixMeta{}, fmt.Errorf("flashr: SaveNamed of a transposed view; save the base matrix")
	}
	src := x.big.Store()
	nrow, ncol := src.NRow(), src.NCol()
	partRows := src.PartRows()
	dst, err := matrix.NewSAFSStore(s.fs, file, nrow, ncol, partRows)
	if err != nil {
		return matrixMeta{}, err
	}
	buf := make([]float64, partRows*ncol)
	for p := 0; p < src.NumParts(); p++ {
		if err := ctx.Err(); err != nil {
			return matrixMeta{}, err
		}
		rows := matrix.PartRowsOf(nrow, partRows, p)
		if err := src.ReadPart(p, buf[:rows*ncol]); err != nil {
			return matrixMeta{}, err
		}
		if err := dst.WritePart(p, buf[:rows*ncol]); err != nil {
			return matrixMeta{}, err
		}
	}
	// Persist the per-stripe CRC32C table so a later session verifies its
	// reads against the data written now (every stripe was just written, so
	// the table is complete).
	sums, complete := dst.File().Checksums()
	if !complete {
		return matrixMeta{}, fmt.Errorf("flashr: SaveNamed %q: incomplete checksum table", name)
	}
	return matrixMeta{
		NRow: nrow, NCol: ncol, PartRows: partRows,
		DType: x.big.DType().String(), Version: metaVersion,
		Checksums: map[string][]uint32{name: sums},
	}, nil
}

// writeMeta writes name's sidecar.
func (s *Session) writeMeta(name string, meta matrixMeta) error {
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
	meta, err := s.readMeta(name)
	if err != nil {
		return nil, err
	}
	if meta.PartRows != s.eng.PartRows() {
		return nil, fmt.Errorf("flashr: %q stored with partition height %d, session uses %d",
			name, meta.PartRows, s.eng.PartRows())
	}
	st, err := matrix.OpenSAFSStore(s.fs, name, meta.NRow, meta.NCol, meta.PartRows)
	if err != nil {
		return nil, err
	}
	if err := meta.restoreChecksums(name, st.File()); err != nil {
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
// that name — the persistence analogue of []<- mutation. x may read the
// matrix it replaces (SetNamed(Mul(OpenNamed("m"), 2), "m")). Handles opened
// from the name before the overwrite must be reopened: further reads through
// them fail with safs.ErrRemoved instead of returning stale or mixed data
// (and the invalidation above guarantees the result cache never masks that
// error with a pre-overwrite value).
func (s *Session) SetNamed(x *FM, name string) error {
	if s.fs == nil {
		return fmt.Errorf("flashr: SetNamed needs a session with an SSD array")
	}
	// Snapshot the leaves backed by the old files before they change.
	s.mu.Lock()
	old := append([]*core.Mat(nil), s.named[name]...)
	s.mu.Unlock()
	// A block-format sidecar from an older build (the only *Error readMeta
	// returns) names "<name>.bNN" files the rewrite below would orphan:
	// refuse it and remove nothing.
	var blocked *Error
	if _, err := s.readMeta(name); errors.As(err, &blocked) {
		return err
	}
	// x is written under a temporary name first, because it may read the
	// matrix it replaces; a failed write leaves that matrix as it was.
	tmp := name + ".setnamed"
	meta, err := s.writeNamed(context.Background(), x, name, tmp)
	if err != nil {
		s.fs.Remove(tmp)
		return err
	}
	s.fs.Remove(metaName(name))
	if err := s.fs.Rename(tmp, name); err != nil {
		return err
	}
	for _, m := range old {
		s.eng.NoteMutation(m)
	}
	return s.writeMeta(name, meta)
}

// VerifyNamedCtx scrubs a matrix stored with SaveNamedCtx against the
// checksum table in its sidecar, returning one report for its SAFS file.
// Stripes a v1 sidecar has no checksums for are reported as skipped, not
// corrupt. The scan reads segment bytes directly — no token bucket, no
// retries — so it is off the simulated bandwidth budget. It returns
// ctx.Err() without scanning when ctx is already cancelled.
func (s *Session) VerifyNamedCtx(ctx context.Context, name string) ([]safs.VerifyReport, error) {
	if s.fs == nil {
		return nil, fmt.Errorf("flashr: VerifyNamed needs a session with an SSD array")
	}
	meta, err := s.readMeta(name)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := s.fs.OpenFile(name)
	if err != nil {
		return nil, err
	}
	if err := meta.restoreChecksums(name, f); err != nil {
		return nil, err
	}
	rep, err := f.Verify()
	if err != nil {
		return nil, err
	}
	return []safs.VerifyReport{rep}, nil
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
