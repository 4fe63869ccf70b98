package matrix

import (
	"testing"

	"repro/internal/safs"
)

// BenchmarkReadPart reads one 40-column partition of the engine's default
// height (16,384 rows, 5 MiB) per op from a 4-drive unthrottled array with
// verification on: a flat row-major SAFSStore (the layout the engine gives
// every matrix it creates) against the 32+8 column BlockedStore of a
// persisted named matrix, which reads each block into a staging buffer and
// scatters it row by row.
func BenchmarkReadPart(b *testing.B) {
	const ncol, rows = 40, 1 << 14
	layouts := []struct {
		name string
		open func(fs *safs.FS) (Store, error)
	}{
		{"flat", func(fs *safs.FS) (Store, error) {
			return NewSAFSStore(fs, "m", int64(rows), ncol, rows)
		}},
		{"blocked", func(fs *safs.FS) (Store, error) {
			blocks := make([]Store, NumBlockCols(ncol))
			for i := range blocks {
				st, err := NewSAFSStore(fs, "m.b"+string(rune('0'+i)), int64(rows), BlockWidth(ncol, i), rows)
				if err != nil {
					return nil, err
				}
				blocks[i] = st
			}
			return NewBlockedStore(blocks)
		}},
	}
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			fs, err := safs.OpenTempDir(b.TempDir(), 4, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			s, err := l.open(fs)
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
}
