package safs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// newIntegrityFS builds an FS with a small stripe so integrity tests cover
// many stripes cheaply. mod tweaks the Config before Open.
func newIntegrityFS(t *testing.T, drives, stripeBytes int, mod func(*Config)) *FS {
	t.Helper()
	dirs := make([]string, drives)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("ssd-%02d", i))
	}
	cfg := Config{Drives: dirs, StripeBytes: stripeBytes}
	if mod != nil {
		mod(&cfg)
	}
	fs, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func fillFile(t *testing.T, fs *FS, name string, size int64, seed int64) (*File, []byte) {
	t.Helper()
	f, err := fs.Create(name, size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return f, data
}

// TestChecksumCleanPath: a fault-free write/read pass verifies every stripe
// and reports zero failures, retries, and recoveries.
func TestChecksumCleanPath(t *testing.T) {
	fs := newIntegrityFS(t, 3, 4096, nil)
	f, data := fillFile(t, fs, "m", 10*4096+777, 7)
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	st := fs.Stats()
	if st.ChecksumFailures != 0 || st.Retries != 0 || st.RecoveredReads != 0 || st.RecoveredWrites != 0 {
		t.Fatalf("clean pass reported faults: %+v", st)
	}
	if st.VerifyTime <= 0 {
		t.Fatalf("expected nonzero verify time, got %v", st.VerifyTime)
	}
	sums, complete := f.Checksums()
	if !complete {
		t.Fatal("checksum table incomplete after full write")
	}
	if int64(len(sums)) != (f.Size()+4095)/4096 {
		t.Fatalf("checksum table has %d entries", len(sums))
	}
}

// TestCorruptionDetected: a bit flipped on media surfaces as a StripeError
// naming the drive, file, and stripe, wrapping the checksum mismatch.
func TestCorruptionDetected(t *testing.T) {
	fs := newIntegrityFS(t, 3, 4096, func(c *Config) {
		c.RetryBackoff = 1 // keep retries fast; they cannot heal on-media damage
	})
	f, data := fillFile(t, fs, "m", 8*4096, 11)
	const badStripe = 5
	if err := f.Corrupt(badStripe, 123); err != nil {
		t.Fatal(err)
	}
	// Reads not touching the corrupt stripe still succeed.
	ok := make([]byte, 4096)
	if err := f.ReadAt(ok, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ok, data[:4096]) {
		t.Fatal("healthy stripe mismatch")
	}
	// The corrupt stripe fails permanently with full identification.
	err := f.ReadAt(ok, badStripe*4096)
	var se *StripeError
	if !errors.As(err, &se) {
		t.Fatalf("want StripeError, got %v", err)
	}
	if se.File != "m" || se.Stripe != badStripe || se.Op != "read" {
		t.Fatalf("StripeError misidentifies the failure: %+v", se)
	}
	if se.Drive != fs.driveOfStripe(badStripe) {
		t.Fatalf("StripeError names drive %d, stripe lives on %d", se.Drive, fs.driveOfStripe(badStripe))
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("want wrapped ChecksumError, got %v", err)
	}
	if st := fs.Stats(); st.ChecksumFailures == 0 {
		t.Fatal("checksum failure not counted")
	}
}

// TestTransientErrorsRecovered: injected EIOs at 10% on both paths are healed
// by retry/backoff and the read is bit-identical to the written data.
func TestTransientErrorsRecovered(t *testing.T) {
	fs := newIntegrityFS(t, 3, 4096, func(c *Config) {
		c.MaxRetries = 8
		c.RetryBackoff = 1
	})
	fs.InjectFaults(&Faults{Seed: 42, ReadErrRate: 0.1, WriteErrRate: 0.1})
	f, data := fillFile(t, fs, "m", 32*4096+100, 13)
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovered read not bit-identical")
	}
	st := fs.Stats()
	if st.Retries == 0 {
		t.Fatal("expected retries under 10% injected error rate")
	}
	if st.RecoveredReads == 0 && st.RecoveredWrites == 0 {
		t.Fatal("expected recovered requests under injection")
	}
}

// TestFlipBitRecovered: transfer corruption (bit flips on the wire) is caught
// by the per-stripe CRC and healed by re-reading.
func TestFlipBitRecovered(t *testing.T) {
	fs := newIntegrityFS(t, 2, 4096, func(c *Config) {
		c.MaxRetries = 8
		c.RetryBackoff = 1
	})
	f, data := fillFile(t, fs, "m", 16*4096, 17)
	fs.InjectFaults(&Faults{Seed: 99, FlipBitRate: 0.3})
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("flip-bit corruption leaked into a verified read")
	}
	st := fs.Stats()
	if st.ChecksumFailures == 0 || st.RecoveredReads == 0 {
		t.Fatalf("flips not detected/recovered: %+v", st)
	}
}

// TestFlipBitSilentWithoutVerify documents the failure mode checksums exist
// for: with verification disabled, transfer corruption reaches the caller.
func TestFlipBitSilentWithoutVerify(t *testing.T) {
	fs := newIntegrityFS(t, 2, 4096, func(c *Config) {
		c.DisableVerify = true
	})
	f, data := fillFile(t, fs, "m", 16*4096, 19)
	fs.InjectFaults(&Faults{Seed: 5, FlipBitRate: 1})
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("expected silent corruption with verification disabled")
	}
	if st := fs.Stats(); st.ChecksumFailures != 0 {
		t.Fatal("disabled verification must not count failures")
	}
}

// TestDropWriteDetected: a torn write (drive acks, media keeps old bytes)
// is caught on the next read because the checksum records the intended data.
func TestDropWriteDetected(t *testing.T) {
	fs := newIntegrityFS(t, 2, 4096, func(c *Config) {
		c.RetryBackoff = 1
	})
	f, err := fs.Create("m", 4*4096)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*4096)
	rand.New(rand.NewSource(23)).Read(data)
	fs.InjectFaults(&Faults{Seed: 1, DropWriteRate: 1})
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("dropped write must look successful, got %v", err)
	}
	fs.InjectFaults(nil)
	got := make([]byte, len(data))
	err = f.ReadAt(got, 0)
	var se *StripeError
	if !errors.As(err, &se) {
		t.Fatalf("want StripeError on torn write, got %v", err)
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("want wrapped ChecksumError, got %v", err)
	}
}

// TestRestoreChecksums: a file reopened from disk alone has no checksums;
// restoring a sidecar table re-enables verification, and a table of the wrong
// shape is rejected.
func TestRestoreChecksums(t *testing.T) {
	cfg := Config{Drives: DriveDirs(t.TempDir(), 2), StripeBytes: 4096, RetryBackoff: 1}
	fs, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, data := fillFile(t, fs, "m", 6*4096+10, 29)
	sums, complete := f.Checksums()
	if !complete {
		t.Fatal("expected complete table")
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	f2, err := fs2.OpenFile("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, complete := f2.Checksums(); complete {
		t.Fatal("reopened file should have no checksum table")
	}
	if err := f2.RestoreChecksums(sums[:2]); err == nil {
		t.Fatal("short table must be rejected")
	}
	if err := f2.RestoreChecksums(sums); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored-table read mismatch")
	}
	// The restored table really is enforced: corrupt a stripe and read it.
	if err := f2.Corrupt(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := f2.ReadAt(got[:4096], 4096); err == nil {
		t.Fatal("corruption after restore went undetected")
	}
}

// TestVerifyScan: the maintenance scrub reports exactly the corrupted stripe
// and the drive holding it.
func TestVerifyScan(t *testing.T) {
	fs := newIntegrityFS(t, 3, 4096, nil)
	f, _ := fillFile(t, fs, "m", 9*4096+512, 31)
	rep, err := f.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stripes != 10 || rep.Verified != 10 || rep.Skipped != 0 || len(rep.Corrupt) != 0 {
		t.Fatalf("clean scan: %+v", rep)
	}
	if err := f.Corrupt(4, 99); err != nil {
		t.Fatal(err)
	}
	rep, err = f.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 {
		t.Fatalf("want 1 corrupt stripe, got %+v", rep.Corrupt)
	}
	c := rep.Corrupt[0]
	if c.Stripe != 4 || c.Drive != fs.driveOfStripe(4) || c.Want == c.Got {
		t.Fatalf("corrupt stripe misreported: %+v", c)
	}
}

// TestRetryDisabled: negative MaxRetries makes the first failure permanent.
func TestRetryDisabled(t *testing.T) {
	fs := newIntegrityFS(t, 2, 4096, func(c *Config) {
		c.MaxRetries = -1
	})
	f, _ := fillFile(t, fs, "m", 4*4096, 37)
	fs.InjectFaults(&Faults{Seed: 3, ReadErrRate: 1})
	err := f.ReadAt(make([]byte, 4096), 0)
	var se *StripeError
	if !errors.As(err, &se) {
		t.Fatalf("want StripeError, got %v", err)
	}
	if se.Attempts != 1 {
		t.Fatalf("retry disabled but %d attempts reported", se.Attempts)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want wrapped ErrInjected, got %v", err)
	}
	if st := fs.Stats(); st.Retries != 0 {
		t.Fatal("retry disabled but retries counted")
	}
}

// FuzzStripeRoundTrip exercises the checksum write/read/verify cycle over
// arbitrary data, sizes, and offsets: every verified read must return the
// bytes written and a scrub must report a fully clean file.
func FuzzStripeRoundTrip(f *testing.F) {
	f.Add([]byte("hello, striped world"), uint16(100), uint8(3))
	f.Add([]byte{0}, uint16(0), uint8(1))
	f.Add(bytes.Repeat([]byte{0xAB}, 600), uint16(511), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, off16 uint16, nd uint8) {
		drives := int(nd)%4 + 1
		const stripe = 256
		fs, err := Open(Config{Drives: DriveDirs(t.TempDir(), drives), StripeBytes: stripe, RetryBackoff: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		off := int64(off16)
		size := off + int64(len(data)) + int64(off16%stripe)
		if size == 0 {
			size = 1
		}
		file, err := fs.Create("fz", size)
		if err != nil {
			t.Fatal(err)
		}
		// Fill fully (establishes every checksum), then overwrite a window at
		// an arbitrary offset (partial-stripe read-modify-checksum path).
		base := make([]byte, size)
		for i := range base {
			base[i] = byte(i * 131)
		}
		if err := file.WriteAt(base, 0); err != nil {
			t.Fatal(err)
		}
		if err := file.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), base...)
		copy(want[off:], data)
		got := make([]byte, size)
		if err := file.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("verified read differs from written bytes")
		}
		rep, err := file.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Corrupt) != 0 || rep.Skipped != 0 {
			t.Fatalf("scrub of a clean file: %+v", rep)
		}
	})
}
