package matrix

import (
	"testing"

	"repro/internal/safs"
)

// BenchmarkReadPart reads one 40-column partition of the engine's default
// height (16,384 rows, 5 MiB) per op from a 4-drive unthrottled array with
// verification on, through the flat row-major SAFSStore every matrix on the
// array uses: one extent read straight into the caller's buffer.
func BenchmarkReadPart(b *testing.B) {
	const ncol, rows = 40, 1 << 14
	b.Run("flat", func(b *testing.B) {
		fs, err := safs.OpenTempDir(b.TempDir(), 4, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		s, err := NewSAFSStore(fs, "m", int64(rows), ncol, rows)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]float64, rows*ncol)
		if err := s.WritePart(0, buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(buf)) * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ReadPart(0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
