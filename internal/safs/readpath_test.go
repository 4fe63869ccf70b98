package safs

import (
	"bytes"
	"testing"
)

// TestVerifiedReadInPlace: a verified read whose pieces cover whole stripes
// is checksummed in the caller's buffer and never stages a stripe in a
// drive's scratch buffer; a read of part of a stripe does stage it. Under
// injected bit flips both return the written bytes, because a flip lands in
// whichever buffer was checked and the retry overwrites it.
func TestVerifiedReadInPlace(t *testing.T) {
	const stripe = 4096
	cases := []struct {
		name   string
		off, n int
		staged bool
	}{
		{name: "full-stripe", off: 2 * stripe, n: 10 * stripe},
		{name: "partial-stripe", off: stripe / 4, n: stripe / 2, staged: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newIntegrityFS(t, 2, stripe, func(c *Config) {
				c.MaxRetries = 16
				c.RetryBackoff = 1
			})
			f, data := fillFile(t, fs, "m", 16*stripe, 23)
			fs.InjectFaults(&Faults{Seed: 31, FlipBitRate: 0.3})
			got := make([]byte, tc.n)
			// Repeat the read until some attempt has been flipped, so the
			// assertion below never passes on a fault-free run.
			for i := 0; i < 64 && fs.Stats().ChecksumFailures == 0; i++ {
				clear(got)
				if err := f.ReadAt(got, int64(tc.off)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
					t.Fatalf("read %d: flip-bit corruption leaked into a verified read", i)
				}
			}
			if st := fs.Stats(); st.ChecksumFailures == 0 || st.RecoveredReads == 0 {
				t.Fatalf("flips not detected/recovered: %+v", st)
			}
			staged := false
			for _, d := range fs.drives {
				staged = staged || d.scratch != nil
			}
			if staged != tc.staged {
				t.Fatalf("scratch stripe used = %v, want %v", staged, tc.staged)
			}
		})
	}
}

// BenchmarkReadAt measures one array read per op (1 MiB stripes, 4 drives,
// no throttle, so the host page cache serves every byte): four whole
// stripes verified in the caller's buffer and half a stripe verified
// through the scratch stripe. The ceiling is host memcpy plus CRC32C
// bandwidth.
func BenchmarkReadAt(b *testing.B) {
	const stripe = DefaultStripeBytes
	cases := []struct {
		name   string
		off, n int
	}{
		{name: "verified-full", n: 4 * stripe},
		{name: "verified-partial", off: stripe / 4, n: stripe / 2},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			fs, err := Open(Config{Drives: DriveDirs(b.TempDir(), 4)})
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			f, err := fs.Create("m", 4*stripe)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.WriteAt(make([]byte, 4*stripe), 0); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, tc.n)
			b.SetBytes(int64(tc.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.ReadAt(buf, int64(tc.off)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
