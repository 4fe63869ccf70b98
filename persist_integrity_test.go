package flashr

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/safs"
)

// TestSidecarV2RoundTripVerified: SaveNamed persists per-stripe checksums in
// the sidecar; a fresh session restores them, so on-media corruption that
// happens between sessions is caught on the first read and pinpointed by the
// scrub.
func TestSidecarV2RoundTripVerified(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "d0"), filepath.Join(root, "d1")}
	s := emSessionAt(t, dirs)
	x, err := s.Rnorm(2000, 3, 0, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveNamedCtx(context.Background(), x, "m"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := emSessionAt(t, dirs)
	defer s2.Close()
	// Clean scrub first: every stripe verified, none skipped.
	reps, err := s2.VerifyNamedCtx(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("flat matrix produced %d reports", len(reps))
	}
	if r := reps[0]; r.Verified != r.Stripes || r.Skipped != 0 || len(r.Corrupt) != 0 {
		t.Fatalf("clean scrub: %+v", r)
	}
	// Corrupt one bit on media, as if a cell decayed while the array was off.
	f, err := s2.FS().OpenFile("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Corrupt(0, 10); err != nil {
		t.Fatal(err)
	}
	// The scrub names the stripe and the drive holding it.
	reps, err = s2.VerifyNamedCtx(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps[0].Corrupt) != 1 || reps[0].Corrupt[0].Stripe != 0 {
		t.Fatalf("scrub missed the corruption: %+v", reps[0])
	}
	// And a read through the reopened matrix fails loudly instead of
	// returning corrupt data.
	y, err := s2.OpenNamed("m")
	if err != nil {
		t.Fatal(err)
	}
	_, err = y.AsDense()
	var se *safs.StripeError
	if !errors.As(err, &se) {
		t.Fatalf("read of corrupted matrix: want StripeError, got %v", err)
	}
	if se.File != "m" || se.Stripe != 0 {
		t.Fatalf("StripeError misidentifies the failure: %+v", se)
	}
}

// TestSidecarV1Compat: a v1 sidecar (shape only, no checksum tables) still
// opens; reads are unverified and the scrub reports every stripe skipped.
func TestSidecarV1Compat(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "d0")}
	s := emSessionAt(t, dirs)
	x, err := s.Rnorm(1000, 2, 0, 1, 43)
	if err != nil {
		t.Fatal(err)
	}
	want, err := x.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveNamedCtx(context.Background(), x, "old"); err != nil {
		t.Fatal(err)
	}
	// Rewrite the sidecar as a v1 file would have been written.
	meta := matrixMeta{NRow: 1000, NCol: 2, PartRows: 256, Blocks: 0, DType: "double", Version: 1}
	raw, err := json.Marshal(meta)
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
	s.Close()

	s2 := emSessionAt(t, dirs)
	defer s2.Close()
	y, err := s2.OpenNamed("old")
	if err != nil {
		t.Fatalf("v1 sidecar rejected: %v", err)
	}
	got, err := y.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d mismatch after v1 reopen", i)
		}
	}
	reps, err := s2.VerifyNamedCtx(context.Background(), "old")
	if err != nil {
		t.Fatal(err)
	}
	if r := reps[0]; r.Verified != 0 || r.Skipped != r.Stripes {
		t.Fatalf("v1 scrub should skip everything: %+v", r)
	}
}

// TestSidecarRejectsNewerVersion: a sidecar written by a future build fails
// with a version error rather than being misread.
func TestSidecarRejectsNewerVersion(t *testing.T) {
	root := t.TempDir()
	s := emSessionAt(t, []string{filepath.Join(root, "d0")})
	defer s.Close()
	meta := matrixMeta{NRow: 10, NCol: 1, PartRows: 256, DType: "double", Version: metaVersion + 1}
	raw, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := s.FS().Create(metaName("future"), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenNamed("future"); err == nil {
		t.Fatal("opened a sidecar from the future")
	}
	if _, err := s.VerifyNamedCtx(context.Background(), "future"); err == nil {
		t.Fatal("verified a sidecar from the future")
	}
}

// TestVerifyNamedBlocked: wide matrices scrub one report per column block.
func TestVerifyNamedBlocked(t *testing.T) {
	root := t.TempDir()
	s := emSessionAt(t, []string{filepath.Join(root, "d0"), filepath.Join(root, "d1")})
	defer s.Close()
	x, err := s.Rnorm(600, 40, 0, 1, 47) // > 32 cols → 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveNamedCtx(context.Background(), x, "wide"); err != nil {
		t.Fatal(err)
	}
	reps, err := s.VerifyNamedCtx(context.Background(), "wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("blocked matrix produced %d reports, want 2", len(reps))
	}
	for _, r := range reps {
		if r.Verified != r.Stripes || len(r.Corrupt) != 0 {
			t.Fatalf("blocked scrub: %+v", r)
		}
	}
}
