package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/safs"
)

// TestVerifyScrubRealProcesses builds flashr-gen and flashr-info and runs the
// end-to-end scrub: generate a named matrix on a 4-drive array, verify it
// clean (exit 0), overwrite four bytes of one segment on disk, and demand
// that -verify exits non-zero with a CORRUPT line naming the matrix.
func TestVerifyScrubRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs flashr-gen and flashr-info processes")
	}
	dir := t.TempDir()
	genBin := filepath.Join(dir, "flashr-gen")
	infoBin := filepath.Join(dir, "flashr-info")
	for bin, pkg := range map[string]string{genBin: "../flashr-gen", infoBin: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	array := filepath.Join(dir, "array")
	if out, err := exec.Command(genBin, "-dataset", "pagegraph", "-n", "20000", "-ssd-root", array).CombinedOutput(); err != nil {
		t.Fatalf("flashr-gen: %v\n%s", err, out)
	}
	if out, err := exec.Command(infoBin, "-ssd-root", array, "-verify").CombinedOutput(); err != nil {
		t.Fatalf("-verify on a clean array: %v\n%s", err, out)
	}

	// Under the default hash striping, ssd-01 holds a full stripe of
	// pagegraph-x at n = 20000, so offset 100 lands in checksummed data.
	seg := filepath.Join(array, "ssd-01", "pagegraph-x.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 100); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(infoBin, "-ssd-root", array, "-verify").Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("-verify missed on-disk corruption (err %v):\n%s", err, out)
	}
	if !regexp.MustCompile(`(?m)^CORRUPT pagegraph-x`).Match(out) {
		t.Fatalf("-verify exited %d without a CORRUPT pagegraph-x line:\n%s", exit.ExitCode(), out)
	}
}

// TestListShowsUnopenableNamed builds flashr-info and lists an array holding
// the sidecar of a 40-column matrix in the 32-column block format older
// builds wrote: the listing names the matrix with the reason it cannot be
// opened instead of leaving it out.
func TestListShowsUnopenableNamed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a flashr-info process")
	}
	dir := t.TempDir()
	infoBin := filepath.Join(dir, "flashr-info")
	if out, err := exec.Command("go", "build", "-o", infoBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build flashr-info: %v\n%s", err, out)
	}
	array := filepath.Join(dir, "array")
	fs, err := safs.Open(safs.Config{Drives: safs.DriveDirs(array, 4)})
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"nrow":600,"ncol":40,"part_rows":16384,"blocks":2,"dtype":"double","version":2}`)
	mf, err := fs.Create("criteo-x.meta", int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(infoBin, "-ssd-root", array).CombinedOutput()
	if err != nil {
		t.Fatalf("listing: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`(?m)^  criteo-x: flashr: open\.named: .*2 column blocks`).Match(out) {
		t.Fatalf("listing does not report the block-format matrix:\n%s", out)
	}
}
