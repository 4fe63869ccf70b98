package safs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// openReleaseFS builds an FS of n drives with 4 KiB stripes under root.
func openReleaseFS(t *testing.T, root string, n int) *FS {
	t.Helper()
	fs, err := Open(Config{Drives: DriveDirs(root, n), StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// driveFiles lists every file in the drive directories under root, as
// "ssd-NN/<name>", sorted.
func driveFiles(t *testing.T, root string) []string {
	t.Helper()
	dirs, _ := filepath.Glob(filepath.Join(root, "ssd-*"))
	var out []string
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			out = append(out, filepath.Join(filepath.Base(d), e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

// openFDs counts this process's open file descriptors, or returns -1 where
// /proc/self/fd cannot be read.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestRemoveReleasesExtent: 20 cycles of create, write and remove never
// leave more segment files or open descriptors than the live file holds, and
// Close leaves only the live file's segments and no descriptor.
func TestRemoveReleasesExtent(t *testing.T) {
	const drives = 3
	root := t.TempDir()
	fdBase := openFDs()
	fs, err := Open(Config{Drives: DriveDirs(root, drives), StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Create("keep", 5000); err != nil {
		t.Fatal(err)
	}
	const limit = drives
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("tmp%d", i)
		size := int64(6*4096 + 512*i)
		f, err := fs.Create(name, size)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(randBytes(int(size), int64(i)), 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(name); err != nil {
			t.Fatal(err)
		}
		if got := driveFiles(t, root); len(got) > limit {
			t.Fatalf("cycle %d: %d files on the drives, want at most %d: %v", i, len(got), limit, got)
		}
		if fdBase >= 0 {
			if got := openFDs() - fdBase; got > limit {
				t.Fatalf("cycle %d: %d descriptors open beyond the baseline, want at most %d", i, got, limit)
			}
		}
		if got := fs.List(); len(got) != 1 || got[0] != "keep" {
			t.Fatalf("cycle %d: List = %v, want [keep]", i, got)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ssd-00/keep.seg", "ssd-01/keep.seg", "ssd-02/keep.seg"}
	if got := driveFiles(t, root); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after Close the drives hold %v, want %v", got, want)
	}
	if fdBase >= 0 {
		if got := openFDs(); got != fdBase {
			t.Fatalf("after Close %d descriptors are open, %d before Open", got, fdBase)
		}
	}
}

// TestRemoveWithInflightIO holds a read, then a write, of a file in flight
// with injected latency while the file is removed and created anew under the
// same name and size. The held read returns the old bytes, never the new
// file's, and the held write lands in no file that is live.
func TestRemoveWithInflightIO(t *testing.T) {
	root := t.TempDir()
	fs := openReleaseFS(t, root, 2)
	const size = 8 * 4096
	a, err := fs.Create("a", size)
	if err != nil {
		t.Fatal(err)
	}
	old := randBytes(size, 1)
	if err := a.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}

	// A held read.
	fs.InjectFaults(&Faults{Latency: 100 * time.Millisecond})
	held := make([]byte, size)
	done := make(chan Request, 1)
	a.ReadAsyncPass(held, 0, 0, done, nil)
	time.Sleep(20 * time.Millisecond) // the drives start the held pieces
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrRemoved) {
		t.Fatalf("read on a removed file: %v, want ErrRemoved", err)
	}
	a2, err := fs.Create("a", size)
	if err != nil {
		t.Fatal(err)
	}
	fs.InjectFaults(nil)
	fresh := randBytes(size, 2)
	if err := a2.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.Err == nil && !bytes.Equal(held, old) {
		t.Fatal("the held read returned bytes other than the removed file's")
	}
	got := make([]byte, size)
	if err := a2.ReadAt(got, 0); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("the new file reads back wrong (err %v)", err)
	}

	// A held write.
	fs.InjectFaults(&Faults{Latency: 100 * time.Millisecond})
	wrote := make(chan error, 1)
	late := randBytes(size, 3)
	go func() { wrote <- a2.WriteAt(late, 0) }()
	for a2.meta.refs.Load() == 1 {
		time.Sleep(time.Millisecond) // until the write's pieces are queued
	}
	time.Sleep(20 * time.Millisecond)
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	a3, err := fs.Create("a", size)
	if err != nil {
		t.Fatal(err)
	}
	fs.InjectFaults(nil)
	if err := <-wrote; err != nil {
		t.Fatalf("held write: %v", err)
	}
	if err := a3.ReadAt(got, 0); err != nil || !bytes.Equal(got, make([]byte, size)) {
		t.Fatalf("the new file does not read zeros after the held write (err %v)", err)
	}
	// None of the new file's stripes may be one the held write wrote.
	for _, d := range DriveDirs(root, 2) {
		raw, err := os.ReadFile(filepath.Join(d, "a.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(raw); off += 4096 {
			for s := 0; s < size; s += 4096 {
				if bytes.Equal(raw[off:off+4096], late[s:s+4096]) {
					t.Fatalf("the held write landed in the new file's segment on %s", d)
				}
			}
		}
	}
}

// TestRenameReplaces: Rename moves a file, bytes and checksums, to a name
// that already holds a file. A File open on the replaced file fails with
// ErrRemoved, one open on the moved file keeps working, and the old name
// leaves the namespace and the drives.
func TestRenameReplaces(t *testing.T) {
	root := t.TempDir()
	fs := openReleaseFS(t, root, 3)
	const size = 5*4096 + 100
	m, err := fs.Create("m", size)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(randBytes(size, 1), 0); err != nil {
		t.Fatal(err)
	}
	tmp, err := fs.Create("m.tmp", size)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(size, 2)
	if err := tmp.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("m.tmp", "m"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := m.ReadAt(got, 0); !errors.Is(err, ErrRemoved) {
		t.Fatalf("read on the replaced file: %v, want ErrRemoved", err)
	}
	if err := tmp.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read through the moved File (err %v)", err)
	}
	m2, err := fs.OpenFile("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read of the renamed file (err %v)", err)
	}
	if rep, err := m2.Verify(); err != nil || rep.Verified != 6 || len(rep.Corrupt) != 0 {
		t.Fatalf("scrub of the renamed file: %+v, %v", rep, err)
	}
	if got := fs.List(); fmt.Sprint(got) != "[m]" {
		t.Fatalf("List = %v, want [m]", got)
	}
	for _, f := range driveFiles(t, root) {
		if filepath.Base(f) == "m.tmp.seg" {
			t.Fatalf("%s left behind", f)
		}
	}
	if err := fs.Rename("nope", "x"); err == nil {
		t.Fatal("Rename of a file that is not open succeeded")
	}
}

// TestRemoveKeepsOtherFSBytes: a file that another FS over the same drives
// has open keeps reading its own bytes after this FS removes it and creates
// a new file of the same name and size, because Remove unlinks the segments
// rather than reusing them.
func TestRemoveKeepsOtherFSBytes(t *testing.T) {
	root := t.TempDir()
	fs := openReleaseFS(t, root, 2)
	const size = 4*4096 + 300
	a, err := fs.Create("a", size)
	if err != nil {
		t.Fatal(err)
	}
	old := randBytes(size, 1)
	if err := a.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	other := openReleaseFS(t, root, 2)
	oa, err := other.OpenFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	a2, err := fs.Create("a", size)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.WriteAt(randBytes(size, 2), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := oa.ReadAt(got, 0); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the other FS's open file changed under it (err %v)", err)
	}
}
