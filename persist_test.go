package flashr

import (
	"context"
	"path/filepath"
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

func TestSaveNamedWideUsesBlocks(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "d0"), filepath.Join(root, "d1")}
	s := emSessionAt(t, dirs)
	defer s.Close()
	x, err := s.Rnorm(600, 40, 0, 1, 4) // > 32 cols → 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	want := Sum(Abs(x)).MustFloat()
	if err := s.SaveNamedCtx(context.Background(), x, "wide"); err != nil {
		t.Fatal(err)
	}
	// Block files exist in the namespace.
	var sawBlock bool
	for _, f := range s.FS().List() {
		if f == "wide.b01" {
			sawBlock = true
		}
	}
	if !sawBlock {
		t.Fatal("wide matrix not stored as 32-column blocks")
	}
	y, err := s.OpenNamed("wide")
	if err != nil {
		t.Fatal(err)
	}
	if got := Sum(Abs(y)).MustFloat(); got != want {
		t.Fatalf("blocked round trip %g != %g", got, want)
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
