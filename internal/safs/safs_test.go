package safs

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func newFS(t *testing.T, drives int, readMBps, writeMBps float64) *FS {
	t.Helper()
	fs, err := OpenTempDir(t.TempDir(), drives, readMBps, writeMBps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestOpenFailureStopsStartedDrives fails drive 1's directory creation (its
// path runs through a regular file) after drive 0's worker has started, and
// checks that Open both errors and leaves no drive goroutine behind.
func TestOpenFailureStopsStartedDrives(t *testing.T) {
	root := t.TempDir()
	blocker := filepath.Join(root, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	fs, err := Open(Config{Drives: []string{filepath.Join(root, "ssd-00"), filepath.Join(blocker, "ssd-01")}})
	if err == nil {
		fs.Close()
		t.Fatal("Open succeeded with drive 1 under a regular file")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("Open error left %d goroutines running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDriveDirsLayout pins the on-disk array layout that CLIs, scripts and
// the benchmark agree on.
func TestDriveDirsLayout(t *testing.T) {
	got := DriveDirs("root", 2)
	want := []string{filepath.Join("root", "ssd-00"), filepath.Join("root", "ssd-01")}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DriveDirs = %v, want %v", got, want)
	}
}

// TestRoundTrip writes and reads back data spanning many stripes on several
// drives.
func TestRoundTrip(t *testing.T) {
	fs := newFS(t, 4, 0, 0)
	const size = 5*DefaultStripeBytes + 12345
	f, err := fs.Create("m", size)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, size)
	rng.Read(data)
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Unaligned interior read crossing a stripe boundary.
	off := int64(DefaultStripeBytes - 100)
	part := make([]byte, 300)
	if err := f.ReadAt(part, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, data[off:off+300]) {
		t.Fatal("interior read mismatch")
	}
}

// TestStriping verifies data is spread over every drive.
func TestStriping(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenTempDir(dir, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const size = 24 * DefaultStripeBytes
	f, err := fs.Create("m", size)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 3; i++ {
		matches, _ := filepath.Glob(filepath.Join(dir, "ssd-*", "m.seg"))
		if len(matches) != 3 {
			t.Fatalf("found %d segments, want 3", len(matches))
		}
		st, err := os.Stat(matches[i])
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, st.Size())
	}
	var total int64
	for _, s := range sizes {
		if s == 0 {
			t.Fatal("a drive holds no data")
		}
		total += s
	}
	if total != size {
		t.Fatalf("segments total %d, want %d", total, size)
	}
}

// TestOutOfRange checks bounds enforcement.
func TestOutOfRange(t *testing.T) {
	fs := newFS(t, 2, 0, 0)
	f, err := fs.Create("m", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReadAt(make([]byte, 10), 995); err == nil {
		t.Fatal("read past EOF succeeded")
	}
	if err := f.WriteAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative-offset write succeeded")
	}
}

// TestAsyncIO exercises the async read path used by the engine's
// prefetcher.
func TestAsyncIO(t *testing.T) {
	fs := newFS(t, 2, 0, 0)
	const size = 1 << 20
	f, err := fs.Create("m", size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	done := make(chan Request, 4)
	f.WriteAsync(data, 0, 1, done)
	if req := <-done; req.Err != nil || req.Tag != 1 {
		t.Fatalf("write completion %+v", req)
	}
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, size/4)
		f.ReadAsync(bufs[i], int64(i)*size/4, i, done)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		req := <-done
		if req.Err != nil {
			t.Fatal(req.Err)
		}
		seen[req.Tag] = true
	}
	for i := range bufs {
		if !seen[i] {
			t.Fatalf("tag %d missing", i)
		}
		if !bytes.Equal(bufs[i], data[int64(i)*size/4:int64(i+1)*size/4]) {
			t.Fatalf("async read %d mismatch", i)
		}
	}
}

// TestThrottle checks that the token bucket enforces an aggregate bandwidth
// ceiling (loosely — timing tests must tolerate CI jitter).
func TestThrottle(t *testing.T) {
	fs := newFS(t, 2, 4, 0) // 4 MiB/s aggregate read
	const size = 1 << 20    // 1 MiB
	f, err := fs.Create("m", size)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 1 MiB at 4 MiB/s ≈ 250 ms minus a burst allowance; anything under
	// 100 ms means the throttle did not engage.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("read of 1MiB at 4MiB/s took only %v", elapsed)
	}
	st := fs.Stats()
	if st.BytesRead < size {
		t.Fatalf("stats read %d < %d", st.BytesRead, size)
	}
}

// TestReopen verifies metadata recovery when opening an existing file from a
// fresh FS over the same drives.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	fs1, err := OpenTempDir(dir, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const size = 2*DefaultStripeBytes + 777
	f, err := fs1.Create("m", size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	fs1.Close()

	fs2, err := OpenTempDir(dir, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	f2, err := fs2.OpenFile("m")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != size {
		t.Fatalf("recovered size %d, want %d", f2.Size(), size)
	}
	got := make([]byte, size)
	if err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reopened data mismatch")
	}
}

// TestRemove checks file deletion and namespace listing.
func TestRemove(t *testing.T) {
	fs := newFS(t, 2, 0, 0)
	if _, err := fs.Create("a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("b", 100); err != nil {
		t.Fatal(err)
	}
	if got := fs.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("list %v", got)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := fs.List(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("list after remove %v", got)
	}
	if _, err := fs.OpenFile("a"); err == nil {
		t.Fatal("opened removed file")
	}
}

// TestStripingModes compares hash and round-robin mappings: both must
// round-trip and cover every drive; round-robin must be exactly even.
func TestStripingModes(t *testing.T) {
	for _, mode := range []Striping{StripeHash, StripeRoundRobin} {
		dir := t.TempDir()
		drives := make([]string, 4)
		for i := range drives {
			drives[i] = filepath.Join(dir, fmt.Sprintf("d%d", i))
		}
		fs, err := Open(Config{Drives: drives, Striping: mode})
		if err != nil {
			t.Fatal(err)
		}
		const size = 32*DefaultStripeBytes + 100
		f, err := fs.Create("m", size)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		rng := rand.New(rand.NewSource(int64(mode) + 5))
		rng.Read(data)
		if err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		if err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("mode %d round trip", mode)
		}
		// Per-drive sizes cover all drives; RR is exactly even over the
		// 32 whole stripes.
		for id := range drives {
			seg := f.segmentSize(id)
			if seg == 0 {
				t.Fatalf("mode %d leaves drive %d empty", mode, id)
			}
			if mode == StripeRoundRobin && id > 0 && (seg < 8*DefaultStripeBytes || seg > 9*DefaultStripeBytes) {
				t.Fatalf("round-robin drive %d holds %d bytes", id, seg)
			}
		}
		fs.Close()
	}
}

// TestHashStripingDeterministic: the mapping must be stable across FS
// instances or reopened files read garbage.
func TestHashStripingDeterministic(t *testing.T) {
	dir := t.TempDir()
	write := func() []byte {
		fs, err := OpenTempDir(dir, 3, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		f, err := fs.Create("m", 5*DefaultStripeBytes)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 5*DefaultStripeBytes)
		for i := range data {
			data[i] = byte(i * 13)
		}
		if err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := write()
	fs2, err := OpenTempDir(dir, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	f2, err := fs2.OpenFile("m")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hash striping not deterministic across FS instances")
	}
}
