package flashr

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func emSessionAt(t *testing.T, dirs []string) *Session {
	t.Helper()
	s, err := NewSession(Options{Workers: 2, PartRows: 256, EM: true, SSDDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveOpenNamedRoundTrip(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "d0"), filepath.Join(root, "d1")}
	s := emSessionAt(t, dirs)
	x, err := s.Rnorm(2000, 5, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the persisted elements bit-exactly; a Sum checksum would be
	// sensitive to which worker aggregated which partition.
	want, err := x.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveNamedCtx(context.Background(), x, "mymatrix"); err != nil {
		t.Fatal(err)
	}
	names := s.ListNamed()
	if len(names) != 1 || names[0] != "mymatrix" {
		t.Fatalf("named list %v", names)
	}
	// Reopen from a completely fresh session over the same drives.
	s.Close()
	s2 := emSessionAt(t, dirs)
	defer s2.Close()
	y, err := s2.OpenNamed("mymatrix")
	if err != nil {
		t.Fatal(err)
	}
	if r, c := y.Dim(); r != 2000 || c != 5 {
		t.Fatalf("reopened dims %dx%d", r, c)
	}
	got, err := y.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %g != %g after reopen", i, got.Data[i], want.Data[i])
		}
	}
}

// TestSaveNamedWideFlat: a matrix wider than 32 columns is saved as one
// flat file beside its sidecar, with no block files, and reads back
// bit-identically.
func TestSaveNamedWideFlat(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "d0"), filepath.Join(root, "d1")}
	s := emSessionAt(t, dirs)
	defer s.Close()
	x, err := s.Rnorm(600, 40, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Sum(Abs(x)).MustFloat()
	if err := s.SaveNamedCtx(context.Background(), x, "wide"); err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, f := range s.FS().List() {
		if strings.HasPrefix(f, "wide") {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	if len(files) != 2 || files[0] != "wide" || files[1] != "wide.meta" {
		t.Fatalf("wide matrix stored as %v, want [wide wide.meta]", files)
	}
	y, err := s.OpenNamed("wide")
	if err != nil {
		t.Fatal(err)
	}
	if got := Sum(Abs(y)).MustFloat(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("wide round trip %g != %g", got, want)
	}
}

// TestBlockFormatSidecarRefused: a v2 sidecar of the old 32-column block
// format is refused with a *Error by OpenNamed, VerifyNamedCtx and
// SetNamed, and SetNamed removes none of its files.
func TestBlockFormatSidecarRefused(t *testing.T) {
	root := t.TempDir()
	s := emSessionAt(t, []string{filepath.Join(root, "d0")})
	defer s.Close()
	planted := []string{"old.b00", "old.b01", "old.meta"}
	for _, f := range planted[:2] {
		if _, err := s.FS().Create(f, 600*32*8); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := json.Marshal(matrixMeta{NRow: 600, NCol: 40, PartRows: 256, Blocks: 2, DType: "double", Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := s.FS().Create(metaName("old"), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	x, err := s.Rnorm(600, 40, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, openErr := s.OpenNamed("old")
	_, verifyErr := s.VerifyNamedCtx(context.Background(), "old")
	setErr := s.SetNamed(x, "old")
	for call, err := range map[string]error{"OpenNamed": openErr, "VerifyNamedCtx": verifyErr, "SetNamed": setErr} {
		var fe *Error
		if !errors.As(err, &fe) || fe.Op != "open.named" {
			t.Fatalf("%s: want *Error with op open.named, got %v", call, err)
		}
		for _, part := range []string{`"old"`, "2 column blocks", "version 2"} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: error %q does not name %s", call, err, part)
			}
		}
	}
	have := map[string]bool{}
	for _, f := range s.FS().List() {
		have[f] = true
	}
	for _, f := range planted {
		if !have[f] {
			t.Fatalf("SetNamed removed %s of a refused sidecar", f)
		}
	}
	if have["old"] {
		t.Fatal("SetNamed wrote a flat file beside a refused sidecar")
	}
}

func TestSaveNamedVirtualMaterializesFirst(t *testing.T) {
	root := t.TempDir()
	s := emSessionAt(t, []string{filepath.Join(root, "d0")})
	defer s.Close()
	x, err := s.Rnorm(1000, 2, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	virt := Sqrt(Abs(x)) // still lazy
	if !virt.IsVirtual() {
		t.Fatal("expected virtual input")
	}
	if err := s.SaveNamedCtx(context.Background(), virt, "derived"); err != nil {
		t.Fatal(err)
	}
	y, err := s.OpenNamed("derived")
	if err != nil {
		t.Fatal(err)
	}
	diff := Max(Abs(Sub(y, virt))).MustFloat()
	if diff != 0 {
		t.Fatalf("derived matrix differs by %g", diff)
	}
}

func TestOpenNamedErrors(t *testing.T) {
	root := t.TempDir()
	s := emSessionAt(t, []string{filepath.Join(root, "d0")})
	defer s.Close()
	if _, err := s.OpenNamed("missing"); err == nil {
		t.Fatal("opened nonexistent matrix")
	}
	mem := NewMemSession()
	if err := mem.SaveNamedCtx(context.Background(), mem.Ones(10, 1), "x"); err == nil {
		t.Fatal("SaveNamed on a memory session succeeded")
	}
	if _, err := mem.OpenNamed("x"); err == nil {
		t.Fatal("OpenNamed on a memory session succeeded")
	}
}
