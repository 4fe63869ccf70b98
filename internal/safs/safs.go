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
//     round-robin (the default hash) so that reading even a column subset of
//     a matrix touches every drive, as §3.2.1 of the paper requires;
//   - every drive has a token-bucket bandwidth model so the aggregate I/O
//     throughput is a hard, configurable ceiling an order of magnitude below
//     memory bandwidth — this is what makes the in-memory vs external-memory
//     experiments (Fig. 9) meaningful on hardware without a 24-SSD array;
//   - reads and writes can be issued asynchronously to a pool of per-drive
//     I/O goroutines, which is how the engine overlaps I/O with compute.
//
// Direct I/O (O_DIRECT) is not portable and the host page cache cannot be
// bypassed from pure Go; the token bucket dominates timing instead, which
// preserves the behaviour the engine depends on (a fixed bandwidth budget).
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

// Striping selects how stripe blocks map to drives.
type Striping int8

const (
	// StripeHash spreads stripes with a multiplicative hash — the paper's
	// default ("we use a hash function to map data to fully utilize the
	// bandwidth of all SSDs even if we access only a subset of columns").
	StripeHash Striping = iota
	// StripeRoundRobin places stripe i on drive i mod N.
	StripeRoundRobin
)

// Config configures a simulated SSD array.
type Config struct {
	// Drives are directories, one per simulated SSD. At least one.
	Drives []string
	// Striping selects the stripe→drive mapping (default StripeHash).
	Striping Striping
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
	// DisableVerify turns off CRC32C verification on reads (checksums are
	// still maintained on writes). The escape hatch for measuring the
	// verification overhead; leave off in normal operation.
	DisableVerify bool
}

// DefaultMaxRetries is the retry budget per stripe request.
const DefaultMaxRetries = 3

// DefaultRetryBackoff is the initial retry delay (doubles per attempt).
const DefaultRetryBackoff = 500 * time.Microsecond

// FS is a user-space filesystem over an array of simulated SSDs.
type FS struct {
	cfg     Config
	stripe  int
	drives  []*drive
	mu      sync.Mutex
	files   map[string]*fileMeta
	closed  bool
	reqWG   sync.WaitGroup
	statsMu sync.Mutex
	stats   Stats

	// passSeq issues array-unique pass identifiers (RegisterPass).
	passSeq atomic.Int64

	faults atomic.Pointer[Faults]

	// Integrity counters (atomic: bumped from per-drive workers).
	checksumFails   atomic.Int64
	retries         atomic.Int64
	recoveredReads  atomic.Int64
	recoveredWrites atomic.Int64
	verifyNs        atomic.Int64
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

// fileMeta is the FS-side record of one striped file: its size plus the
// per-stripe CRC32C table (the integrity metadata a real SAFS keeps beside
// its mapping metadata).
type fileMeta struct {
	name string
	size int64

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
func (fs *FS) Stats() Stats {
	fs.statsMu.Lock()
	st := fs.stats
	fs.statsMu.Unlock()
	st.ChecksumFailures = fs.checksumFails.Load()
	st.Retries = fs.retries.Load()
	st.RecoveredReads = fs.recoveredReads.Load()
	st.RecoveredWrites = fs.recoveredWrites.Load()
	st.VerifyTime = time.Duration(fs.verifyNs.Load())
	return st
}

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
	// queued piece is drained before the workers stop.
	fs.reqWG.Wait()
	var first error
	for _, d := range fs.drives {
		d.shutdown()
		d.wg.Wait()
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Create makes (or truncates) a striped file of the given size in bytes.
func (fs *FS) Create(name string, size int64) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("safs: negative size %d for %q", size, name)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, errors.New("safs: filesystem closed")
	}
	meta := &fileMeta{name: name, size: size}
	n := meta.nStripes(fs.stripe)
	meta.sums = make([]uint32, n)
	meta.known = make([]bool, n)
	f := &File{fs: fs, name: name, size: size, meta: meta}
	for _, d := range fs.drives {
		if err := d.createSegment(name, f.segmentSize(d.id)); err != nil {
			return nil, err
		}
	}
	fs.files[name] = meta
	return f, nil
}

// OpenFile opens an existing striped file.
func (fs *FS) OpenFile(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		// Recover metadata from disk: sum of segment sizes.
		var total int64
		for _, d := range fs.drives {
			st, err := os.Stat(d.segPath(name))
			if err != nil {
				return nil, fmt.Errorf("safs: open %q: %w", name, err)
			}
			total += st.Size()
		}
		// Checksums are unknown for a file recovered from disk alone;
		// RestoreChecksums reinstates them from a metadata sidecar, and any
		// write re-establishes the written stripe's checksum.
		meta = &fileMeta{name: name, size: total}
		fs.files[name] = meta
	}
	return &File{fs: fs, name: name, size: meta.size, meta: meta}, nil
}

// Remove deletes a striped file from all drives.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, name)
	var first error
	for _, d := range fs.drives {
		if err := os.Remove(d.segPath(name)); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
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
		h, err := f.fs.drives[id].handle(f.name)
		if err != nil {
			return rep, err
		}
		if _, err := h.ReadAt(sc[:n], int64(f.ordinals[s])*stripe); err != nil {
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
	id := f.fs.driveOfStripe(stripe)
	h, err := f.fs.drives[id].handle(f.name)
	if err != nil {
		return err
	}
	off := int64(f.ordinals[stripe])*int64(f.fs.stripe) + int64(byteOff)
	var b [1]byte
	if _, err := h.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x80
	_, err = h.WriteAt(b[:], off)
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

// driveOfStripe maps a global stripe index to a drive, either by hash (the
// paper's default) or round-robin.
func (fs *FS) driveOfStripe(stripe int64) int {
	n := int64(len(fs.drives))
	if fs.cfg.Striping == StripeRoundRobin {
		return int(stripe % n)
	}
	z := uint64(stripe)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return int(z % uint64(n))
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
// proceed in parallel, each throttled by its drive's token bucket.
func (f *File) ReadAt(p []byte, off int64) error {
	return f.rw(p, off, false, nil)
}

// WriteAt writes len(p) bytes at offset off; blocking semantics mirror
// ReadAt.
func (f *File) WriteAt(p []byte, off int64) error {
	return f.rw(p, off, true, nil)
}

// ReadAtPass is ReadAt with the I/O attributed to (and fair-queued under)
// the given pass. A nil pass is equivalent to ReadAt.
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

func (fs *FS) account(n int64, write bool) {
	fs.statsMu.Lock()
	if write {
		fs.stats.BytesWritten += n
		fs.stats.Writes++
	} else {
		fs.stats.BytesRead += n
		fs.stats.Reads++
	}
	fs.statsMu.Unlock()
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
	n     atomic.Int32
	done  chan<- Request
	tag   int
	write bool
	pass  *Pass

	errMu sync.Mutex
	err   error
}

// finish records one piece's outcome; the last piece fires the completion.
func (c *completion) finish(err error, nbytes int) {
	if err != nil {
		c.errMu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.errMu.Unlock()
	} else {
		c.fs.account(int64(nbytes), c.write)
		if c.pass != nil {
			if c.write {
				c.pass.bytesWritten.Add(int64(nbytes))
				c.pass.writes.Add(1)
			} else {
				c.pass.bytesRead.Add(int64(nbytes))
				c.pass.reads.Add(1)
			}
		}
	}
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
	comp := &completion{fs: f.fs, done: done, tag: tag, write: write, pass: pass}
	if len(p) == 0 {
		// Zero-length request: complete immediately, nothing to queue.
		done <- Request{Tag: tag}
		return
	}
	reqs := f.pieces(p, off, write, comp)
	comp.n.Store(int32(len(reqs)))
	// Register under fs.mu so Close cannot observe reqWG empty between our
	// closed check and the Add.
	f.fs.mu.Lock()
	if f.fs.closed {
		f.fs.mu.Unlock()
		done <- Request{Err: errors.New("safs: filesystem closed"), Tag: tag}
		return
	}
	f.fs.reqWG.Add(1)
	f.fs.mu.Unlock()
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

// ReadAsync schedules an asynchronous read of len(p) bytes at off and
// delivers the completion on done. The buffer must not be touched until the
// completion arrives. Each stripe-spanning piece is queued to its drive's
// worker, so one request proceeds in parallel across drives.
func (f *File) ReadAsync(p []byte, off int64, tag int, done chan<- Request) {
	f.submit(p, off, false, true, tag, done, nil)
}

// WriteAsync schedules an asynchronous write; semantics mirror ReadAsync.
// The caller hands the buffer to the array until the completion arrives —
// the engine's write-behind queue relies on this ownership transfer.
func (f *File) WriteAsync(p []byte, off int64, tag int, done chan<- Request) {
	f.submit(p, off, true, true, tag, done, nil)
}

// ReadAsyncPass is ReadAsync with the I/O fair-queued under and attributed
// to the given pass; a nil pass uses the drive's default queue.
func (f *File) ReadAsyncPass(p []byte, off int64, tag int, done chan<- Request, pass *Pass) {
	f.submit(p, off, false, true, tag, done, pass)
}

// WriteAsyncPass is WriteAsync with pass attribution.
func (f *File) WriteAsyncPass(p []byte, off int64, tag int, done chan<- Request, pass *Pass) {
	f.submit(p, off, true, true, tag, done, pass)
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

	mu   sync.Mutex
	open map[string]*os.File
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
	d := &drive{id: id, dir: dir, depth: depth, open: make(map[string]*os.File), queues: make(map[int64]*passQueue)}
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
			fs.retries.Add(1)
			if r.pass != nil {
				r.pass.retries.Add(1)
			}
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
				if r.write {
					fs.recoveredWrites.Add(1)
					if r.pass != nil {
						r.pass.recoveredWrites.Add(1)
					}
				} else {
					fs.recoveredReads.Add(1)
					if r.pass != nil {
						r.pass.recoveredReads.Add(1)
					}
				}
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
// checksum (and verification is enabled) the whole stripe is read and its
// CRC32C checked before the requested range is copied out; the stripe-sized
// read happens at device level — no token bucket — modeling the in-drive
// integrity check (T10-DIF style) real arrays do in hardware, which keeps
// verification off the simulated bandwidth budget.
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
	f, err := d.handle(r.name)
	if err != nil {
		return err
	}
	want, known := r.meta.sum(r.stripe)
	if !known || fs.cfg.DisableVerify {
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
	sc := d.scratchBuf(r.stripeLen)
	if _, err := f.ReadAt(sc, r.stripeOff); err != nil {
		return err
	}
	if flt != nil && d.roll(flt.Seed, flt.FlipBitRate) {
		sc[int(r.stripe)%len(sc)] ^= 0x40
	}
	t0 := time.Now()
	got := crc32.Checksum(sc, crcTable)
	dt := time.Since(t0).Nanoseconds()
	fs.verifyNs.Add(dt)
	if r.pass != nil {
		r.pass.verifyNs.Add(dt)
	}
	if got != want {
		fs.checksumFails.Add(1)
		if r.pass != nil {
			r.pass.checksumFails.Add(1)
		}
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
	f, err := d.handle(r.name)
	if err != nil {
		return err
	}
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
	fs.verifyNs.Add(dt)
	if r.pass != nil {
		r.pass.verifyNs.Add(dt)
	}
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

func (d *drive) createSegment(name string, size int64) error {
	f, err := os.OpenFile(d.segPath(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("safs: drive %d: %w", d.id, err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return fmt.Errorf("safs: drive %d truncate: %w", d.id, err)
	}
	d.mu.Lock()
	if old, ok := d.open[name]; ok {
		old.Close()
	}
	d.open[name] = f
	d.mu.Unlock()
	return nil
}

func (d *drive) handle(name string) (*os.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.open[name]; ok {
		return f, nil
	}
	f, err := os.OpenFile(d.segPath(name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("safs: drive %d: %w", d.id, err)
	}
	d.open[name] = f
	return f, nil
}

func (d *drive) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, f := range d.open {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.open = map[string]*os.File{}
	return first
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
