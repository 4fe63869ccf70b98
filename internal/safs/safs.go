// Package safs is a user-space "SSD array filesystem" in the spirit of SAFS
// (Zheng et al., SC'13), the storage substrate FlashR stores matrices on.
//
// The real SAFS stripes a file over an array of SSDs, issues asynchronous
// direct I/O to bypass the page cache, and merges sequential writes from
// many threads to sustain device throughput. This package reproduces that
// architecture at laptop scale:
//
//   - a filesystem (FS) manages N "drives", each a directory on the host;
//   - a File is striped over the drives in fixed-size stripe blocks mapped
//     by a hash so that a scan over any run of a matrix's partitions
//     touches every drive, as §3.2.1 of the paper requires;
//   - every drive has a token-bucket bandwidth model so the aggregate I/O
//     throughput is a hard, configurable ceiling an order of magnitude below
//     memory bandwidth — this is what makes the in-memory vs external-memory
//     experiments (Fig. 9) meaningful on hardware without a 24-SSD array;
//   - reads can be issued asynchronously to a pool of per-drive I/O
//     goroutines, and a bounded write-behind queue (WriteBack) runs writes
//     behind compute, which is how the engine overlaps I/O with compute.
//
// Every stripe carries a CRC32C recorded on write. A verified read checks a
// piece covering a whole stripe in place, in the caller's buffer, as SAFS
// hands user buffers straight to its per-drive I/O threads; only a partial
// piece stages its stripe in a per-drive scratch buffer.
//
// Each file does its I/O through its own open segments. Remove takes a name
// out of the namespace and unlinks its segments at once: a File opened under
// it fails later requests with ErrRemoved, while pieces already queued
// finish on the unlinked segments, whose handles close when the file's last
// piece ends. So a freed file gives back its disk blocks and descriptors
// without waiting for Close.
//
// Unlike the real SAFS, this package uses buffered I/O through the host page
// cache, and the token bucket sets timing. That preserves the behaviour the
// engine depends on: a fixed bandwidth budget.
package safs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// crcTable is the CRC32C (Castagnoli) table used for per-stripe checksums —
// the polynomial real storage stacks (iSCSI, ext4, Btrfs) use, with hardware
// support on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultStripeBytes is the stripe-block size. The paper dispatches multiple
// contiguous I/O partitions per thread to match the SAFS block size; our
// engine does the same against this value.
const DefaultStripeBytes = 1 << 20 // 1 MiB

// Config configures a simulated SSD array.
type Config struct {
	// Drives are directories, one per simulated SSD. At least one.
	Drives []string
	// StripeBytes is the striping unit; 0 selects DefaultStripeBytes.
	StripeBytes int
	// ReadMBps and WriteMBps are the *aggregate* array bandwidths in
	// MiB/s, split evenly over drives. Zero disables throttling (the
	// drives are then as fast as the host filesystem).
	ReadMBps  float64
	WriteMBps float64
	// QueueDepth is the per-drive async request queue length (default 8).
	QueueDepth int
	// MaxRetries bounds how many times a failed stripe request is retried
	// with exponential backoff before it surfaces as a permanent
	// StripeError (0 selects DefaultMaxRetries, negative disables retry).
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt and capped at one second (0 selects DefaultRetryBackoff).
	RetryBackoff time.Duration
}

// DefaultMaxRetries is the retry budget per stripe request.
const DefaultMaxRetries = 3

// DefaultRetryBackoff is the initial retry delay (doubles per attempt).
const DefaultRetryBackoff = 500 * time.Microsecond

// ErrRemoved marks a request on a File whose name was removed (or created
// anew) after the File was opened.
var ErrRemoved = errors.New("safs: file removed")

// FS is a user-space filesystem over an array of simulated SSDs.
type FS struct {
	cfg    Config
	stripe int
	drives []*drive
	mu     sync.Mutex
	files  map[string]*fileMeta
	closed bool
	reqWG  sync.WaitGroup
	ctr    counters

	// passSeq issues array-unique pass identifiers (RegisterPass).
	passSeq atomic.Int64

	faults atomic.Pointer[Faults]
}

// Stats aggregates I/O accounting for an FS.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Writes       int64

	// ChecksumFailures counts stripe reads whose CRC32C did not match the
	// recorded value (each failed attempt counts once).
	ChecksumFailures int64
	// Retries counts retry attempts issued after transient failures.
	Retries int64
	// RecoveredReads / RecoveredWrites count requests that failed at least
	// once and then succeeded within the retry budget.
	RecoveredReads  int64
	RecoveredWrites int64
	// VerifyTime is cumulative time spent on integrity work: CRC32C
	// computation plus the read-modify cycles that maintain checksums for
	// partial-stripe writes.
	VerifyTime time.Duration
}

// counters is the live form of Stats, bumped from per-drive workers and
// request completions. The FS keeps one array-wide set and every Pass its
// own.
type counters struct {
	bytesRead, bytesWritten, reads, writes    atomic.Int64
	checksumFails, retries                    atomic.Int64
	recoveredReads, recoveredWrites, verifyNs atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		BytesRead:        c.bytesRead.Load(),
		BytesWritten:     c.bytesWritten.Load(),
		Reads:            c.reads.Load(),
		Writes:           c.writes.Load(),
		ChecksumFailures: c.checksumFails.Load(),
		Retries:          c.retries.Load(),
		RecoveredReads:   c.recoveredReads.Load(),
		RecoveredWrites:  c.recoveredWrites.Load(),
		VerifyTime:       time.Duration(c.verifyNs.Load()),
	}
}

// count applies f to the array-wide counters and, for a tagged request, to
// its pass's.
func (fs *FS) count(pass *Pass, f func(*counters)) {
	f(&fs.ctr)
	if pass != nil {
		f(&pass.ctr)
	}
}

// fileMeta is the FS-side record of one striped file: its size, its extent
// (one open segment per drive, through which all of its I/O goes) and the
// per-stripe CRC32C table (the integrity metadata a real SAFS keeps beside
// its mapping metadata).
type fileMeta struct {
	name string
	size int64
	segs []*os.File // indexed by drive id

	// refs is 1 while the name is in the namespace, plus one per queued or
	// running piece and per Verify/Corrupt in progress; the segments close
	// when it reaches 0. removed (guarded by the FS's mu) is set when the
	// name leaves the namespace.
	refs    atomic.Int64
	removed bool

	// mu guards the checksum table. Per-drive workers update disjoint
	// stripes, but readers (Checksums, Verify) see the whole table.
	mu    sync.Mutex
	sums  []uint32
	known []bool
}

// nStripes returns the stripe count for this file at the given stripe size.
func (m *fileMeta) nStripes(stripe int) int64 {
	return (m.size + int64(stripe) - 1) / int64(stripe)
}

// setSum records stripe s's checksum, allocating the table on first use
// (files reopened from disk have no table until a write or restore).
func (m *fileMeta) setSum(s int64, crc uint32, stripe int) {
	m.mu.Lock()
	if m.sums == nil {
		n := m.nStripes(stripe)
		m.sums = make([]uint32, n)
		m.known = make([]bool, n)
	}
	if s < int64(len(m.sums)) {
		m.sums[s] = crc
		m.known[s] = true
	}
	m.mu.Unlock()
}

// sum returns stripe s's recorded checksum, if any.
func (m *fileMeta) sum(s int64) (uint32, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s >= int64(len(m.sums)) || !m.known[s] {
		return 0, false
	}
	return m.sums[s], true
}

// Open creates a filesystem over the configured drives, creating drive
// directories as needed.
func Open(cfg Config) (*FS, error) {
	if len(cfg.Drives) == 0 {
		return nil, errors.New("safs: no drives configured")
	}
	if cfg.StripeBytes <= 0 {
		cfg.StripeBytes = DefaultStripeBytes
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	fs := &FS{cfg: cfg, stripe: cfg.StripeBytes, files: make(map[string]*fileMeta)}
	perDriveRead := cfg.ReadMBps / float64(len(cfg.Drives))
	perDriveWrite := cfg.WriteMBps / float64(len(cfg.Drives))
	for i, dir := range cfg.Drives {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fs.Close() // stops the workers of the drives already started
			return nil, fmt.Errorf("safs: creating drive %d: %w", i, err)
		}
		fs.drives = append(fs.drives, newDrive(i, dir, perDriveRead, perDriveWrite, cfg.QueueDepth))
	}
	return fs, nil
}

// DriveDirs names the n drive directories of an array rooted at root:
// root/ssd-00, root/ssd-01, …. Every tool that opens an array by its root
// uses this layout, so arrays written by one open in the others.
func DriveDirs(root string, n int) []string {
	var dirs []string
	for i := 0; i < n; i++ {
		dirs = append(dirs, filepath.Join(root, fmt.Sprintf("ssd-%02d", i)))
	}
	return dirs
}

// OpenTempDir builds an FS with n drives under dir (usually t.TempDir() in
// tests), laid out by DriveDirs. Bandwidths follow cfg semantics.
func OpenTempDir(dir string, n int, readMBps, writeMBps float64) (*FS, error) {
	return Open(Config{Drives: DriveDirs(dir, n), ReadMBps: readMBps, WriteMBps: writeMBps})
}

// StripeBytes returns the striping unit in bytes.
func (fs *FS) StripeBytes() int { return fs.stripe }

// NumDrives returns the number of simulated SSDs.
func (fs *FS) NumDrives() int { return len(fs.drives) }

// Stats returns a snapshot of cumulative I/O accounting.
func (fs *FS) Stats() Stats { return fs.ctr.snapshot() }

// RegisterMetrics registers the array's counters and per-drive histograms
// with a metrics registry. The Stats snapshot is cached once per collection
// (OnCollect), so the counter families of one scrape are mutually consistent.
func (fs *FS) RegisterMetrics(reg *trace.Registry) {
	var snap Stats
	reg.OnCollect(func() { snap = fs.Stats() })
	for _, c := range []struct {
		name, help string
		read       func() float64
	}{
		{"flashr_safs_read_bytes_total", "Bytes read from the SSD array.", func() float64 { return float64(snap.BytesRead) }},
		{"flashr_safs_written_bytes_total", "Bytes written to the SSD array.", func() float64 { return float64(snap.BytesWritten) }},
		{"flashr_safs_reads_total", "Read requests completed by the SSD array.", func() float64 { return float64(snap.Reads) }},
		{"flashr_safs_writes_total", "Write requests completed by the SSD array.", func() float64 { return float64(snap.Writes) }},
		{"flashr_safs_checksum_failures_total", "Stripe reads whose CRC32C mismatched.", func() float64 { return float64(snap.ChecksumFailures) }},
		{"flashr_safs_retries_total", "Retry attempts after transient I/O failures.", func() float64 { return float64(snap.Retries) }},
		{"flashr_safs_recovered_reads_total", "Reads that failed then succeeded within the retry budget.", func() float64 { return float64(snap.RecoveredReads) }},
		{"flashr_safs_recovered_writes_total", "Writes that failed then succeeded within the retry budget.", func() float64 { return float64(snap.RecoveredWrites) }},
		{"flashr_safs_verify_seconds_total", "Cumulative CRC32C and read-modify-checksum time.", func() float64 { return snap.VerifyTime.Seconds() }},
	} {
		reg.CounterFunc(c.name, c.help, c.read)
	}
	for _, d := range fs.drives {
		dl := trace.Label{Key: "drive", Value: strconv.Itoa(d.id)}
		reg.AddHistogram("flashr_safs_request_latency_seconds",
			"SSD request service latency (queue pop to completion).", d.readLat, dl, trace.Label{Key: "op", Value: "read"})
		reg.AddHistogram("flashr_safs_request_latency_seconds",
			"SSD request service latency (queue pop to completion).", d.writeLat, dl, trace.Label{Key: "op", Value: "write"})
		reg.AddHistogram("flashr_safs_queue_depth",
			"Queued requests on the drive, sampled at each enqueue.", d.qdepth, dl)
	}
}

// InjectFaults installs a fault-injection profile on the array (nil clears
// it). Takes effect on the next piece attempt; safe to call while I/O is in
// flight.
func (fs *FS) InjectFaults(f *Faults) { fs.faults.Store(f) }

// Close shuts down the drive workers. Outstanding async requests complete
// first. Files remain on disk.
func (fs *FS) Close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	fs.mu.Unlock()
	// All submitted requests have registered with reqWG before this point
	// (submit checks closed under fs.mu), so waiting here guarantees every
	// queued piece is drained before the workers stop. A removed file's last
	// piece closes its segments before its request leaves reqWG.
	fs.reqWG.Wait()
	for _, d := range fs.drives {
		d.shutdown()
		d.wg.Wait()
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	for _, m := range fs.files {
		if err := closeSegs(m.segs); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Create makes a striped file of the given size in bytes, replacing any file
// of that name (a File opened on the old one then fails with ErrRemoved).
func (fs *FS) Create(name string, size int64) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("safs: negative size %d for %q", size, name)
	}
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil, errors.New("safs: filesystem closed")
	}
	old, err := fs.retireLocked(name)
	meta := &fileMeta{name: name, size: size}
	n := meta.nStripes(fs.stripe)
	meta.sums = make([]uint32, n)
	meta.known = make([]bool, n)
	meta.refs.Store(1)
	var segs []*os.File
	if err == nil {
		segs, err = fs.createSegments(meta)
	}
	if err == nil {
		meta.segs = segs
		fs.files[name] = meta
	}
	fs.mu.Unlock()
	fs.unref(old)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, name: name, size: size, meta: meta}, nil
}

// createSegments creates (or truncates) m's segment on every drive, sized to
// the drive's share of m's stripes.
func (fs *FS) createSegments(m *fileMeta) ([]*os.File, error) {
	f := &File{fs: fs, name: m.name, size: m.size}
	segs := make([]*os.File, len(fs.drives))
	for i, d := range fs.drives {
		h, err := os.OpenFile(d.segPath(m.name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err == nil {
			if err = h.Truncate(f.segmentSize(i)); err != nil {
				h.Close()
			}
		}
		if err != nil {
			closeSegs(segs)
			return nil, fmt.Errorf("safs: drive %d: %w", d.id, err)
		}
		segs[i] = h
	}
	return segs, nil
}

// OpenFile opens an existing striped file.
func (fs *FS) OpenFile(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, errors.New("safs: filesystem closed")
	}
	meta, ok := fs.files[name]
	if !ok {
		// Recover metadata from disk: sum of segment sizes.
		var total int64
		segs := make([]*os.File, len(fs.drives))
		for i, d := range fs.drives {
			h, err := os.OpenFile(d.segPath(name), os.O_RDWR, 0o644)
			var st os.FileInfo
			if err == nil {
				if st, err = h.Stat(); err != nil {
					h.Close()
				}
			}
			if err != nil {
				closeSegs(segs)
				return nil, fmt.Errorf("safs: open %q: %w", name, err)
			}
			segs[i] = h
			total += st.Size()
		}
		// Checksums are unknown for a file recovered from disk alone;
		// RestoreChecksums reinstates them from a metadata sidecar, and any
		// write re-establishes the written stripe's checksum.
		meta = &fileMeta{name: name, size: total, segs: segs}
		meta.refs.Store(1)
		fs.files[name] = meta
	}
	return &File{fs: fs, name: name, size: meta.size, meta: meta}, nil
}

// Remove deletes a striped file from all drives. The name leaves the
// namespace at once; the segments' handles close when the file's last
// in-flight piece ends.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	m, err := fs.retireLocked(name)
	fs.mu.Unlock()
	if m == nil {
		// Not open here: unlink what a previous session left.
		err = fs.unlinkSegments(name)
	}
	fs.unref(m)
	return err
}

// Rename gives the file oldName, which must be open on this FS, the name
// newName, replacing any file of that name as Create does. A File opened
// under oldName keeps working on the renamed file.
func (fs *FS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	m := fs.files[oldName]
	if fs.closed || m == nil {
		fs.mu.Unlock()
		return fmt.Errorf("safs: rename %q: not open", oldName)
	}
	if oldName == newName {
		fs.mu.Unlock()
		return nil
	}
	replaced, err := fs.retireLocked(newName)
	for _, d := range fs.drives {
		if e := os.Rename(d.segPath(oldName), d.segPath(newName)); e != nil && err == nil {
			err = fmt.Errorf("safs: rename %q on drive %d: %w", oldName, d.id, e)
		}
	}
	delete(fs.files, oldName)
	m.name = newName
	fs.files[newName] = m
	fs.mu.Unlock()
	fs.unref(replaced)
	return err
}

// retireLocked takes name out of the namespace and unlinks its segments,
// returning its record (nil when name is not open here) with the
// namespace's reference still to drop. Caller holds fs.mu.
func (fs *FS) retireLocked(name string) (*fileMeta, error) {
	m := fs.files[name]
	if m == nil {
		return nil, nil
	}
	delete(fs.files, name)
	m.removed = true
	return m, fs.unlinkSegments(name)
}

// unlinkSegments removes name's segment from every drive; a missing one is
// not an error.
func (fs *FS) unlinkSegments(name string) error {
	var first error
	for _, d := range fs.drives {
		if err := os.Remove(d.segPath(name)); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// unref drops one reference to m (nil is a no-op) and closes its segments
// on the last one.
func (fs *FS) unref(m *fileMeta) {
	if m != nil && m.refs.Add(-1) == 0 {
		closeSegs(m.segs)
	}
}

// closeSegs closes every non-nil handle and returns the first error.
func closeSegs(segs []*os.File) error {
	var first error
	for _, h := range segs {
		if h == nil {
			continue
		}
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acquire takes a reference on the file's extent for I/O outside the drive
// workers, failing once the name is removed.
func (f *File) acquire() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.meta.removed {
		return fmt.Errorf("safs: %q: %w", f.name, ErrRemoved)
	}
	f.meta.refs.Add(1)
	return nil
}

// List returns the names of files on the array, sorted: those created or
// opened by this FS instance plus any whose segments a previous session left
// on the drive directories. (A file shorter than one stripe occupies a
// single drive, so every drive is scanned and the union taken.)
func (fs *FS) List() []string {
	set := make(map[string]struct{})
	fs.mu.Lock()
	for n := range fs.files {
		set[n] = struct{}{}
	}
	fs.mu.Unlock()
	for _, d := range fs.drives {
		matches, _ := filepath.Glob(filepath.Join(d.dir, "*.seg"))
		for _, m := range matches {
			set[strings.TrimSuffix(filepath.Base(m), ".seg")] = struct{}{}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// File is a file striped across the array's drives.
type File struct {
	fs   *FS
	name string
	size int64
	meta *fileMeta

	idxOnce sync.Once
	// ordinals[s] is the drive-local index of global stripe s (how many
	// earlier stripes share its drive).
	ordinals []int32
}

// Name returns the file's name within the FS namespace.
func (f *File) Name() string { return f.name }

// Size returns the logical file size in bytes.
func (f *File) Size() int64 { return f.size }

// Checksums returns a copy of the file's per-stripe CRC32C table and whether
// every stripe has a recorded checksum. Complete tables are persisted in
// matrix metadata sidecars and reinstated with RestoreChecksums after a
// reopen.
func (f *File) Checksums() ([]uint32, bool) {
	f.meta.mu.Lock()
	defer f.meta.mu.Unlock()
	if f.meta.sums == nil {
		return nil, false
	}
	sums := make([]uint32, len(f.meta.sums))
	copy(sums, f.meta.sums)
	complete := true
	for _, k := range f.meta.known {
		if !k {
			complete = false
			break
		}
	}
	return sums, complete
}

// RestoreChecksums installs a per-stripe CRC32C table recorded by a previous
// session (from a metadata sidecar). Subsequent reads verify against it.
func (f *File) RestoreChecksums(sums []uint32) error {
	want := f.meta.nStripes(f.fs.stripe)
	if int64(len(sums)) != want {
		return fmt.Errorf("safs: %q: restoring %d stripe checksums, file has %d stripes",
			f.name, len(sums), want)
	}
	f.meta.mu.Lock()
	f.meta.sums = make([]uint32, len(sums))
	copy(f.meta.sums, sums)
	f.meta.known = make([]bool, len(sums))
	for i := range f.meta.known {
		f.meta.known[i] = true
	}
	f.meta.mu.Unlock()
	return nil
}

// VerifyReport summarizes an integrity scan of one striped file.
type VerifyReport struct {
	File     string
	Stripes  int64 // stripes in the file
	Verified int64 // stripes checked against a recorded checksum
	Skipped  int64 // stripes with no recorded checksum
	Corrupt  []CorruptStripe
}

// CorruptStripe identifies one stripe whose on-disk bytes do not match its
// recorded CRC32C — including which drive holds it, so an operator knows
// which device is failing.
type CorruptStripe struct {
	Stripe int64
	Drive  int
	Want   uint32
	Got    uint32
}

// Verify scans every stripe of the file against the recorded checksum table.
// Segment bytes are read directly — no token bucket, no retries — because a
// scrub is a maintenance operation, off the simulated bandwidth budget.
func (f *File) Verify() (VerifyReport, error) {
	f.buildIndex()
	rep := VerifyReport{File: f.name}
	if err := f.acquire(); err != nil {
		return rep, err
	}
	defer f.fs.unref(f.meta)
	stripe := int64(f.fs.stripe)
	sc := make([]byte, f.fs.stripe)
	for s := int64(0); s*stripe < f.size; s++ {
		rep.Stripes++
		want, known := f.meta.sum(s)
		if !known {
			rep.Skipped++
			continue
		}
		n := stripe
		if rem := f.size - s*stripe; rem < n {
			n = rem
		}
		id := f.fs.driveOfStripe(s)
		if _, err := f.meta.segs[id].ReadAt(sc[:n], int64(f.ordinals[s])*stripe); err != nil {
			return rep, fmt.Errorf("safs: verify %q stripe %d on drive %d: %w", f.name, s, id, err)
		}
		rep.Verified++
		if got := crc32.Checksum(sc[:n], crcTable); got != want {
			rep.Corrupt = append(rep.Corrupt, CorruptStripe{Stripe: s, Drive: id, Want: want, Got: got})
		}
	}
	return rep, nil
}

// Corrupt flips one bit of the given stripe directly in its drive's segment
// file — the test/chaos hook for persistent on-media corruption (a decayed
// cell or torn write on a real device). byteOff is relative to the stripe
// start.
func (f *File) Corrupt(stripe int64, byteOff int) error {
	f.buildIndex()
	if stripe < 0 || stripe >= int64(len(f.ordinals)) {
		return fmt.Errorf("safs: corrupt %q: stripe %d out of range", f.name, stripe)
	}
	sLen := int64(f.fs.stripe)
	if rem := f.size - stripe*sLen; rem < sLen {
		sLen = rem
	}
	if byteOff < 0 || int64(byteOff) >= sLen {
		return fmt.Errorf("safs: corrupt %q stripe %d: offset %d out of range", f.name, stripe, byteOff)
	}
	if err := f.acquire(); err != nil {
		return err
	}
	defer f.fs.unref(f.meta)
	h := f.meta.segs[f.fs.driveOfStripe(stripe)]
	off := int64(f.ordinals[stripe])*int64(f.fs.stripe) + int64(byteOff)
	var b [1]byte
	if _, err := h.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x80
	_, err := h.WriteAt(b[:], off)
	return err
}

// buildIndex computes each stripe's drive-local ordinal once per file.
func (f *File) buildIndex() {
	f.idxOnce.Do(func() {
		stripe := int64(f.fs.stripe)
		nStripes := (f.size + stripe - 1) / stripe
		f.ordinals = make([]int32, nStripes)
		counts := make([]int32, len(f.fs.drives))
		for s := int64(0); s < nStripes; s++ {
			d := f.fs.driveOfStripe(s)
			f.ordinals[s] = counts[d]
			counts[d]++
		}
	})
}

// segmentSize computes how many bytes of this file live on drive id.
func (f *File) segmentSize(id int) int64 {
	stripe := int64(f.fs.stripe)
	var seg, off int64
	for s := int64(0); off < f.size; s++ {
		take := stripe
		if f.size-off < take {
			take = f.size - off
		}
		if f.fs.driveOfStripe(s) == id {
			seg += take
		}
		off += take
	}
	return seg
}

// driveOfStripe maps a global stripe index to a drive with a multiplicative
// hash, as the paper does ("we use a hash function to map data to fully
// utilize the bandwidth of all SSDs even if we access only a subset of
// columns").
func (fs *FS) driveOfStripe(stripe int64) int {
	z := uint64(stripe)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return int(z % uint64(len(fs.drives)))
}

// segOffset maps a global file offset to (drive, offset within the drive's
// segment file, bytes until the end of the stripe block).
func (f *File) segOffset(off int64) (driveID int, segOff int64, contig int64) {
	f.buildIndex()
	stripe := int64(f.fs.stripe)
	sIdx := off / stripe
	within := off - sIdx*stripe
	driveID = f.fs.driveOfStripe(sIdx)
	segOff = int64(f.ordinals[sIdx])*stripe + within
	contig = stripe - within
	return driveID, segOff, contig
}

// ReadAt reads len(p) bytes at offset off, spanning stripes as needed. It
// blocks until every per-drive piece completes; pieces on different drives
// proceed in parallel, each throttled by its drive's token bucket. When it
// returns an error the contents of p are unspecified.
func (f *File) ReadAt(p []byte, off int64) error {
	return f.rw(p, off, false, nil)
}

// WriteAt writes len(p) bytes at offset off; blocking semantics mirror
// ReadAt.
func (f *File) WriteAt(p []byte, off int64) error {
	return f.rw(p, off, true, nil)
}

// ReadAtPass is ReadAt with the I/O attributed to (and fair-queued under)
// the given pass (nil = ReadAt); p is unspecified when it returns an error.
func (f *File) ReadAtPass(p []byte, off int64, pass *Pass) error {
	return f.rw(p, off, false, pass)
}

// WriteAtPass is WriteAt with the I/O attributed to the given pass.
func (f *File) WriteAtPass(p []byte, off int64, pass *Pass) error {
	return f.rw(p, off, true, pass)
}

func (f *File) rw(p []byte, off int64, write bool, pass *Pass) error {
	done := make(chan Request, 1)
	f.submit(p, off, write, false, 0, done, pass)
	return (<-done).Err
}

func verb(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Request is a completed asynchronous I/O request.
type Request struct {
	Err error
	// Tag is the caller-supplied identifier.
	Tag int
}

// completion aggregates the per-stripe pieces of one file-level request and
// delivers a single Request on done when the last piece finishes.
type completion struct {
	fs    *FS
	meta  *fileMeta
	n     atomic.Int32
	done  chan<- Request
	tag   int
	write bool
	pass  *Pass

	errMu sync.Mutex
	err   error
}

// finish records one piece's outcome and drops the piece's reference on its
// file; the last piece fires the completion.
func (c *completion) finish(err error, nbytes int) {
	if err != nil {
		c.errMu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.errMu.Unlock()
	} else {
		c.fs.count(c.pass, func(ctr *counters) {
			if c.write {
				ctr.bytesWritten.Add(int64(nbytes))
				ctr.writes.Add(1)
			} else {
				ctr.bytesRead.Add(int64(nbytes))
				ctr.reads.Add(1)
			}
		})
	}
	c.fs.unref(c.meta)
	if c.n.Add(-1) == 0 {
		c.errMu.Lock()
		first := c.err
		c.errMu.Unlock()
		c.done <- Request{Err: first, Tag: c.tag}
		c.fs.reqWG.Done()
	}
}

// pieces splits [off, off+len(p)) into per-stripe (drive, segment-offset)
// requests bound to the given completion. Each piece carries its stripe's
// integrity context (global index, segment offset of the stripe start, valid
// stripe length, checksum table) for the drive worker's verify/update path.
func (f *File) pieces(p []byte, off int64, write bool, comp *completion) []ioReq {
	var reqs []ioReq
	stripe := int64(f.fs.stripe)
	for len(p) > 0 {
		id, segOff, contig := f.segOffset(off)
		n := int64(len(p))
		if n > contig {
			n = contig
		}
		sIdx := off / stripe
		sLen := stripe
		if rem := f.size - sIdx*stripe; rem < sLen {
			sLen = rem
		}
		reqs = append(reqs, ioReq{
			drive: id, name: f.name, buf: p[:n], off: segOff, write: write, comp: comp, pass: comp.pass,
			stripe: sIdx, stripeOff: int64(f.ordinals[sIdx]) * stripe, stripeLen: int(sLen), meta: f.meta,
		})
		p = p[n:]
		off += n
	}
	return reqs
}

// submit validates a request, registers it with the FS, and queues its
// pieces to the per-drive workers. When async is set the (possibly blocking)
// queue sends happen on a helper goroutine so the caller returns
// immediately; errors still arrive on done.
func (f *File) submit(p []byte, off int64, write, async bool, tag int, done chan<- Request, pass *Pass) {
	if off < 0 || off+int64(len(p)) > f.size {
		done <- Request{Err: fmt.Errorf("safs: %s out of range [%d,%d) in %q of size %d",
			verb(write), off, off+int64(len(p)), f.name, f.size), Tag: tag}
		return
	}
	comp := &completion{fs: f.fs, meta: f.meta, done: done, tag: tag, write: write, pass: pass}
	reqs := f.pieces(p, off, write, comp)
	comp.n.Store(int32(len(reqs)))
	// Register under fs.mu so Close cannot observe reqWG empty between our
	// closed check and the Add, and Remove cannot release the extent between
	// our removed check and the pieces' references.
	f.fs.mu.Lock()
	var err error
	switch {
	case f.fs.closed:
		err = errors.New("safs: filesystem closed")
	case f.meta.removed:
		err = fmt.Errorf("safs: %s %q: %w", verb(write), f.name, ErrRemoved)
	case len(reqs) > 0:
		f.fs.reqWG.Add(1)
		f.meta.refs.Add(int64(len(reqs)))
	}
	f.fs.mu.Unlock()
	if err != nil || len(reqs) == 0 {
		// An error, or a zero-length request: nothing to queue.
		done <- Request{Err: err, Tag: tag}
		return
	}
	enqueue := func() {
		for _, r := range reqs {
			f.fs.drives[r.drive].enqueue(r)
		}
	}
	if async {
		go enqueue()
	} else {
		enqueue()
	}
}

// ReadAsyncPass schedules an asynchronous read of len(p) bytes at off,
// fair-queued under and attributed to the given pass (nil = the drive's
// default queue), and delivers the completion on done. The buffer must not
// be touched until the completion arrives; when it carries an error the
// contents of p are unspecified. Each stripe-spanning piece is queued to its
// drive's worker, so one request proceeds in parallel across drives.
func (f *File) ReadAsyncPass(p []byte, off int64, tag int, done chan<- Request, pass *Pass) {
	f.submit(p, off, false, true, tag, done, pass)
}

// ioReq is one stripe-granular I/O request queued to a drive worker.
type ioReq struct {
	drive int
	name  string
	buf   []byte
	off   int64 // offset within the drive's segment file
	write bool
	comp  *completion
	// pass tags the request for fair queueing and attribution (nil = the
	// drive's default queue, pass id 0).
	pass *Pass

	// Integrity context: the global stripe this piece lives in, where that
	// stripe starts in the segment, how many of its bytes are valid in the
	// file, and the file's checksum table.
	stripe    int64
	stripeOff int64
	stripeLen int
	meta      *fileMeta
}

// passQueue is one pass's FIFO of pending requests on one drive, plus its
// deficit-round-robin state. Queues are materialized on a pass's first
// request and dropped when they drain, so the scheduler's round only ever
// walks passes with work pending (the "active list" of classic DRR).
type passQueue struct {
	reqs    []ioReq
	weight  int
	deficit int
}

// drrQuantum is the byte credit added per DRR round per unit of weight.
// A quarter stripe: small enough that a weight-1 pass interleaves within a
// stripe-heavy burst from a heavier pass, large enough that any single
// stripe piece (≤ 1 MiB) becomes affordable within a handful of rounds.
const drrQuantum = 256 << 10

// drive is one simulated SSD: a directory holding one segment file per
// striped file, token buckets modelling its read and write bandwidth, and
// per-pass request queues served by a dedicated I/O worker goroutine — the
// per-SSD I/O thread of the real SAFS. The worker picks the next request by
// weighted deficit round robin over the active passes, so concurrent
// materialization passes share the drive's bandwidth in proportion to their
// weights instead of first-come-first-served. Queue depth bounds the
// requests each pass buffers on a drive before its submitters feel
// backpressure (per-pass, so a backed-up pass cannot block another pass's
// submissions).
type drive struct {
	id      int
	dir     string
	readTB  *tokenBucket
	writeTB *tokenBucket
	wg      sync.WaitGroup

	// qmu guards the queue map and DRR state; qcond wakes the worker when
	// work arrives and submitters when depth frees up or a queue drains.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queues  map[int64]*passQueue
	order   []int64 // active passes in arrival order; rrPos indexes it
	rrPos   int
	closing bool
	depth   int

	// scratch is the worker-private full-stripe buffer for checksum
	// verification and partial-stripe read-modify-checksum cycles.
	scratch []byte
	// frng rolls fault injection for this drive (worker-private).
	frng *rand.Rand

	// Always-on drive observability (adopted into a metrics registry via
	// FS.RegisterMetrics): request latency per direction, measured around
	// process() in the worker loop, and the drive's total queued request
	// count sampled at every enqueue. Histogram updates are a few atomic adds
	// per request — noise next to the simulated I/O itself.
	readLat  *trace.Histogram
	writeLat *trace.Histogram
	qdepth   *trace.Histogram
	queued   int // total requests queued across passes; guarded by qmu
}

// latencyBuckets spans the simulated-SSD request range: tens of microseconds
// (unthrottled small pieces) through seconds (throttled + retry backoff).
func latencyBuckets() []float64 {
	return []float64{50e-6, 200e-6, 1e-3, 5e-3, 20e-3, 100e-3, 500e-3, 2.5}
}

// queueDepthBuckets covers 0 through well past the default per-pass depth.
func queueDepthBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64}
}

func newDrive(id int, dir string, readMBps, writeMBps float64, depth int) *drive {
	d := &drive{id: id, dir: dir, depth: depth, queues: make(map[int64]*passQueue)}
	d.readLat = trace.NewHistogram(latencyBuckets()...)
	d.writeLat = trace.NewHistogram(latencyBuckets()...)
	d.qdepth = trace.NewHistogram(queueDepthBuckets()...)
	d.qcond = sync.NewCond(&d.qmu)
	if readMBps > 0 {
		d.readTB = newTokenBucket(readMBps * 1024 * 1024)
	}
	if writeMBps > 0 {
		d.writeTB = newTokenBucket(writeMBps * 1024 * 1024)
	}
	d.wg.Add(1)
	go d.serve()
	return d
}

// passKey maps a request's pass to its queue key (nil pass shares queue 0).
func passKey(p *Pass) (int64, int) {
	if p == nil {
		return 0, 1
	}
	return p.id, p.weight
}

// enqueue adds one request to its pass's queue on this drive, blocking while
// that pass already has depth requests pending here (per-pass backpressure).
func (d *drive) enqueue(r ioReq) {
	key, weight := passKey(r.pass)
	d.qmu.Lock()
	for {
		// The queue may be created, drained, and deleted between waits, so
		// re-fetch it each iteration.
		q := d.queues[key]
		if q == nil || len(q.reqs) < d.depth {
			break
		}
		d.qcond.Wait()
	}
	q := d.queues[key]
	if q == nil {
		// A pass (re)joins the active list with zero deficit — rejoining
		// grants no credit for time spent idle, the classic DRR rule that
		// keeps the scheme fair to continuously-backlogged passes.
		q = &passQueue{weight: weight}
		d.queues[key] = q
		d.order = append(d.order, key)
	}
	q.reqs = append(q.reqs, r)
	d.queued++
	depthNow := d.queued
	d.qmu.Unlock()
	d.qdepth.Observe(float64(depthNow))
	d.qcond.Broadcast()
}

// serve is the drive's I/O worker. Requests within one pass stay FIFO
// (preserving the sequential, merge-friendly access pattern the engine's
// dispatch produces); across passes the worker interleaves by weighted DRR.
// Because one goroutine owns all I/O on this drive, per-stripe operations —
// including the read-modify-checksum cycle of partial-stripe writes — are
// naturally serialized.
func (d *drive) serve() {
	defer d.wg.Done()
	for {
		r, ok := d.nextReq()
		if !ok {
			return
		}
		t0 := time.Now()
		err := d.process(r)
		lat := time.Since(t0).Seconds()
		if r.write {
			d.writeLat.Observe(lat)
		} else {
			d.readLat.Observe(lat)
		}
		r.comp.finish(err, len(r.buf))
	}
}

// nextReq blocks until a request is schedulable or the drive is shutting
// down (shutdown happens only after the FS has drained all submissions, so
// closing implies the queues are empty).
func (d *drive) nextReq() (ioReq, bool) {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	for {
		if r, ok := d.popDRR(); ok {
			// A slot freed in r's queue; wake any submitter blocked on depth.
			d.qcond.Broadcast()
			return r, true
		}
		if d.closing {
			return ioReq{}, false
		}
		d.qcond.Wait()
	}
}

// popDRR removes and returns the next request under weighted deficit round
// robin. Caller holds qmu. Returns false when every queue is empty.
func (d *drive) popDRR() (ioReq, bool) {
	// Drop drained queues from the active list first so deficit top-ups only
	// reach passes with work pending.
	live := d.order[:0]
	for _, key := range d.order {
		if q := d.queues[key]; q != nil && len(q.reqs) > 0 {
			live = append(live, key)
		} else {
			delete(d.queues, key)
		}
	}
	d.order = live
	if len(d.order) == 0 {
		d.rrPos = 0
		return ioReq{}, false
	}
	if d.rrPos >= len(d.order) {
		d.rrPos = 0
	}
	for {
		for i := 0; i < len(d.order); i++ {
			idx := (d.rrPos + i) % len(d.order)
			q := d.queues[d.order[idx]]
			cost := len(q.reqs[0].buf)
			if q.deficit < cost {
				continue
			}
			q.deficit -= cost
			r := q.reqs[0]
			q.reqs[0] = ioReq{} // release buffer/completion references
			q.reqs = q.reqs[1:]
			d.queued--
			if len(q.reqs) == 0 {
				// A pass leaves the active list with its surplus forfeited;
				// the queue itself is reaped on the next popDRR.
				q.deficit = 0
				d.rrPos = (idx + 1) % len(d.order)
			} else {
				d.rrPos = idx
			}
			return r, true
		}
		// No queue head is affordable: run one DRR round, crediting every
		// active pass in proportion to its weight.
		for _, key := range d.order {
			q := d.queues[key]
			q.deficit += drrQuantum * q.weight
		}
	}
}

// shutdown wakes the worker for exit. The FS calls this only after reqWG
// has drained, so the queues are empty by the time closing is observed.
func (d *drive) shutdown() {
	d.qmu.Lock()
	d.closing = true
	d.qmu.Unlock()
	d.qcond.Broadcast()
}

// process runs one piece with bounded retry and exponential backoff.
// Transient failures (injected EIOs, checksum mismatches from transfer
// corruption) are retried; a request that exhausts the budget surfaces as a
// StripeError naming this drive, the file, and the stripe.
func (d *drive) process(r ioReq) error {
	fs := r.comp.fs
	var err error
	for attempt := 0; attempt <= fs.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			fs.count(r.pass, func(c *counters) { c.retries.Add(1) })
			backoff := fs.cfg.RetryBackoff << (attempt - 1)
			if backoff > time.Second {
				backoff = time.Second
			}
			time.Sleep(backoff)
		}
		if r.write {
			err = d.writePiece(fs, r)
		} else {
			err = d.readPiece(fs, r)
		}
		if err == nil {
			if attempt > 0 {
				fs.count(r.pass, func(c *counters) {
					if r.write {
						c.recoveredWrites.Add(1)
					} else {
						c.recoveredReads.Add(1)
					}
				})
			}
			return nil
		}
	}
	return &StripeError{
		Op: verb(r.write), Drive: d.id, File: r.name, Stripe: r.stripe,
		Attempts: fs.cfg.MaxRetries + 1, Err: err,
	}
}

// roll draws one fault-injection decision on this drive's seeded RNG.
func (d *drive) roll(seed int64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if d.frng == nil {
		d.frng = rand.New(rand.NewSource(seed + int64(d.id)*0x9E3779B9))
	}
	return d.frng.Float64() < rate
}

// scratchBuf returns the worker-private stripe buffer, grown to n bytes.
func (d *drive) scratchBuf(n int) []byte {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	return d.scratch[:n]
}

// readPiece performs one read attempt. When the stripe has a recorded
// checksum the whole stripe is read and its CRC32C checked — in the caller's
// buffer when the piece is the whole stripe (the copy-out is then a no-op),
// else in the drive's scratch stripe before the requested range is copied
// out. The stripe-sized read happens at device level — no token bucket —
// modeling the in-drive integrity check (T10-DIF style) real arrays do in
// hardware, which keeps verification off the simulated bandwidth budget. A
// failed attempt may leave corrupt bytes in the caller's buffer; the retry
// overwrites them.
func (d *drive) readPiece(fs *FS, r ioReq) error {
	flt := fs.faults.Load()
	if flt != nil {
		if flt.Latency > 0 {
			time.Sleep(flt.Latency)
		}
		if d.roll(flt.Seed, flt.ReadErrRate) {
			return fmt.Errorf("drive %d: %w", d.id, ErrInjected)
		}
	}
	if d.readTB != nil {
		d.readTB.take(len(r.buf))
	}
	f := r.meta.segs[d.id]
	want, known := r.meta.sum(r.stripe)
	if !known {
		if _, err := f.ReadAt(r.buf, r.off); err != nil {
			return err
		}
		// Without a checksum an injected flip silently corrupts the
		// caller's data — the failure mode verification exists to catch.
		if flt != nil && len(r.buf) > 0 && d.roll(flt.Seed, flt.FlipBitRate) {
			r.buf[0] ^= 0x01
		}
		return nil
	}
	sc := r.buf
	if len(r.buf) != r.stripeLen || r.off != r.stripeOff {
		sc = d.scratchBuf(r.stripeLen)
	}
	if _, err := f.ReadAt(sc, r.stripeOff); err != nil {
		return err
	}
	if flt != nil && d.roll(flt.Seed, flt.FlipBitRate) {
		sc[int(r.stripe)%len(sc)] ^= 0x40
	}
	t0 := time.Now()
	got := crc32.Checksum(sc, crcTable)
	dt := time.Since(t0).Nanoseconds()
	fs.count(r.pass, func(c *counters) { c.verifyNs.Add(dt) })
	if got != want {
		fs.count(r.pass, func(c *counters) { c.checksumFails.Add(1) })
		return &ChecksumError{Want: want, Got: got}
	}
	copy(r.buf, sc[r.off-r.stripeOff:])
	return nil
}

// writePiece performs one write attempt and updates the stripe's CRC32C. A
// full-stripe piece checksums straight from the buffer; a partial piece
// reads the stripe, patches the write into it, and checksums the result
// (safe: this worker serializes all I/O on this drive). An injected dropped
// write still records the intended checksum, so the next verified read of
// the stripe detects the torn write.
func (d *drive) writePiece(fs *FS, r ioReq) error {
	flt := fs.faults.Load()
	if flt != nil {
		if flt.Latency > 0 {
			time.Sleep(flt.Latency)
		}
		if d.roll(flt.Seed, flt.WriteErrRate) {
			return fmt.Errorf("drive %d: %w", d.id, ErrInjected)
		}
	}
	if d.writeTB != nil {
		d.writeTB.take(len(r.buf))
	}
	f := r.meta.segs[d.id]
	t0 := time.Now()
	var crc uint32
	if len(r.buf) == r.stripeLen && r.off == r.stripeOff {
		crc = crc32.Checksum(r.buf, crcTable)
	} else {
		sc := d.scratchBuf(r.stripeLen)
		if _, err := f.ReadAt(sc, r.stripeOff); err != nil {
			return err
		}
		copy(sc[r.off-r.stripeOff:], r.buf)
		crc = crc32.Checksum(sc, crcTable)
	}
	dt := time.Since(t0).Nanoseconds()
	fs.count(r.pass, func(c *counters) { c.verifyNs.Add(dt) })
	if flt == nil || !d.roll(flt.Seed, flt.DropWriteRate) {
		if _, err := f.WriteAt(r.buf, r.off); err != nil {
			return err
		}
	}
	r.meta.setSum(r.stripe, crc, fs.stripe)
	return nil
}

func (d *drive) segPath(name string) string {
	return filepath.Join(d.dir, name+".seg")
}

// tokenBucket throttles to rate bytes/second with a burst of ~50 ms worth of
// tokens, keeping the timing model smooth at partition granularity.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	tokens float64
	burst  float64
	last   time.Time
}

func newTokenBucket(rate float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: rate / 20, last: time.Now()}
}

func (tb *tokenBucket) take(n int) {
	// Debt model: charge the request immediately (tokens may go negative)
	// and sleep until the balance would be non-negative again. Unlike a
	// classic bounded bucket this never deadlocks on requests larger than
	// the burst, while still enforcing the sustained rate.
	tb.mu.Lock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.tokens -= float64(n)
	deficit := -tb.tokens
	tb.mu.Unlock()
	if deficit > 0 {
		time.Sleep(time.Duration(deficit / tb.rate * float64(time.Second)))
	}
}
