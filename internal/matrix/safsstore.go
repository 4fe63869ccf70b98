package matrix

import (
	"fmt"
	"unsafe"

	"repro/internal/safs"
)

// SAFSStore keeps a tall matrix on the simulated SSD array as one striped
// SAFS file, whatever its width. Partitions are stored row-major, partition
// after partition, so reading a partition is one extent going straight into
// the caller's buffer, and the engine's sequential dispatch of I/O
// partitions translates into sequential, merge-friendly access on every
// drive (§3.3 of the paper). Every matrix on the array has this format:
// engine-created ones and named matrices saved with SaveNamed alike.
type SAFSStore struct {
	fs       *safs.FS
	file     *safs.File
	nrow     int64
	ncol     int
	partRows int
	owned    bool // whether Free removes the file

	// pass tags this store's I/O for fair queueing and per-pass attribution
	// (nil = untagged). Set only on WithPass views.
	pass *safs.Pass
}

// WithPass returns a view of the store whose I/O is fair-queued under and
// attributed to the given pass. The view never owns the file — Free on it is
// a no-op — so a pass-scoped view can be dropped without touching the
// original store's data.
func (s *SAFSStore) WithPass(p *safs.Pass) *SAFSStore {
	if p == nil {
		return s
	}
	v := *s
	v.owned = false
	v.pass = p
	return &v
}

// StoreWithPass returns a view of st whose SAFS-backed I/O is fair-queued
// under and attributed to the given pass. Other stores are returned
// unchanged (their traffic never reaches the array), and a nil pass returns
// st itself. Views never own underlying files, so freeing a view is a no-op
// for the original's data.
func StoreWithPass(st Store, p *safs.Pass) Store {
	if s, ok := st.(*SAFSStore); ok {
		return s.WithPass(p)
	}
	return st
}

// NewSAFSStore creates a new striped file sized for an nrow×ncol matrix.
// partRows must be a power of two.
func NewSAFSStore(fs *safs.FS, name string, nrow int64, ncol, partRows int) (*SAFSStore, error) {
	if err := checkPartRows(partRows); err != nil {
		return nil, err
	}
	if nrow < 0 || ncol <= 0 {
		return nil, fmt.Errorf("matrix: invalid shape %dx%d", nrow, ncol)
	}
	f, err := fs.Create(name, nrow*int64(ncol)*8)
	if err != nil {
		return nil, err
	}
	return &SAFSStore{fs: fs, file: f, nrow: nrow, ncol: ncol, partRows: partRows, owned: true}, nil
}

// OpenSAFSStore opens an existing matrix file whose shape is known to the
// caller (cmd/flashr-gen records shapes in a sidecar; tests pass them
// directly). partRows must be a power of two.
func OpenSAFSStore(fs *safs.FS, name string, nrow int64, ncol, partRows int) (*SAFSStore, error) {
	if err := checkPartRows(partRows); err != nil {
		return nil, err
	}
	f, err := fs.OpenFile(name)
	if err != nil {
		return nil, err
	}
	if want := nrow * int64(ncol) * 8; f.Size() != want {
		return nil, fmt.Errorf("matrix: %q has %d bytes, want %d for %dx%d", name, f.Size(), want, nrow, ncol)
	}
	return &SAFSStore{fs: fs, file: f, nrow: nrow, ncol: ncol, partRows: partRows}, nil
}

// NRow implements Store.
func (s *SAFSStore) NRow() int64 { return s.nrow }

// NCol implements Store.
func (s *SAFSStore) NCol() int { return s.ncol }

// PartRows implements Store.
func (s *SAFSStore) PartRows() int { return s.partRows }

// NumParts implements Store.
func (s *SAFSStore) NumParts() int { return NumParts(s.nrow, s.partRows) }

// Kind implements Store.
func (s *SAFSStore) Kind() string { return "safs" }

// File exposes the underlying striped file (used by async prefetchers).
func (s *SAFSStore) File() *safs.File { return s.file }

// Verify scrubs the store's file against its recorded per-stripe checksums,
// reporting corrupt stripes without failing the first read that hits them.
func (s *SAFSStore) Verify() (safs.VerifyReport, error) { return s.file.Verify() }

// PartOffset returns the byte offset of partition i in the file.
func (s *SAFSStore) PartOffset(i int) int64 {
	return int64(i) * int64(s.partRows) * int64(s.ncol) * 8
}

// asBytes reinterprets a float64 slice as its underlying bytes (native
// endianness; matrices never leave the machine, matching SAFS semantics).
func asBytes(p []float64) []byte {
	if len(p) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*8)
}

// ReadPart implements Store.
func (s *SAFSStore) ReadPart(i int, dst []float64) error {
	if err := CheckPart(s, i); err != nil {
		return err
	}
	n := rowsOf(s, i) * s.ncol
	if len(dst) < n {
		return fmt.Errorf("matrix: ReadPart %d: buffer %d < %d", i, len(dst), n)
	}
	return s.file.ReadAtPass(asBytes(dst[:n]), s.PartOffset(i), s.pass)
}

// ReadRows reads len(dst)/NCol() whole rows starting at row r0 into dst.
// Partitions are stored back to back, so any run of rows is one extent of
// the file; a read that starts or ends inside a stripe still verifies the
// whole stripe's checksum.
func (s *SAFSStore) ReadRows(r0 int64, dst []float64) error {
	n := int64(len(dst) / s.ncol)
	if len(dst)%s.ncol != 0 || r0 < 0 || r0+n > s.nrow {
		return fmt.Errorf("matrix: ReadRows %d+%d of %dx%d (buffer %d)", r0, n, s.nrow, s.ncol, len(dst))
	}
	return s.file.ReadAtPass(asBytes(dst), r0*int64(s.ncol)*8, s.pass)
}

// ReadPartAsync schedules an asynchronous read of partition i into dst and
// reports completion on done with the given tag.
func (s *SAFSStore) ReadPartAsync(i int, dst []float64, tag int, done chan<- safs.Request) error {
	if err := CheckPart(s, i); err != nil {
		return err
	}
	n := rowsOf(s, i) * s.ncol
	if len(dst) < n {
		return fmt.Errorf("matrix: ReadPartAsync %d: buffer %d < %d", i, len(dst), n)
	}
	s.file.ReadAsyncPass(asBytes(dst[:n]), s.PartOffset(i), tag, done, s.pass)
	return nil
}

// WritePart implements Store.
func (s *SAFSStore) WritePart(i int, src []float64) error {
	if err := CheckPart(s, i); err != nil {
		return err
	}
	n := rowsOf(s, i) * s.ncol
	if len(src) < n {
		return fmt.Errorf("matrix: WritePart %d: buffer %d < %d", i, len(src), n)
	}
	return s.file.WriteAtPass(asBytes(src[:n]), s.PartOffset(i), s.pass)
}

// Free removes the file from the array if this store created it.
func (s *SAFSStore) Free() error {
	if !s.owned {
		return nil
	}
	s.owned = false
	return s.fs.Remove(s.file.Name())
}
