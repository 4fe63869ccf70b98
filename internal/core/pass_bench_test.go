package core

import (
	"testing"

	"repro/internal/safs"
)

// BenchmarkEMPass runs one read-only EM pass, colSums(x > 0.5), over a
// 65,536 × 40 matrix (20 MiB, four default partitions) on a two-drive
// array. MB/s is bytes read from the array per second; allocs/op and B/op
// count what a pass allocates once the engine pool is warm.
func BenchmarkEMPass(b *testing.B) {
	fs, err := safs.OpenTempDir(b.TempDir(), 2, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	const nrow, ncol = 4 * DefaultPartRows, 40
	x := safsLeaf(b, fs, "x", nrow, ncol, DefaultPartRows, 1)
	// No CSE, so the result cache cannot serve a repeated pass.
	e, err := NewEngine(Config{Workers: 2, FS: fs, DisableCSE: true})
	if err != nil {
		b.Fatal(err)
	}
	pass := func() {
		if err := e.Materialize(nil, []*Sink{AggCol(MapplyScalar(x, 0.5, BinGt, false), AggSum)}); err != nil {
			b.Fatal(err)
		}
	}
	pass() // warm the pool
	b.SetBytes(nrow * ncol * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
