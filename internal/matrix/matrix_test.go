package matrix

import (
	"math/rand"
	"testing"

	"repro/internal/numa"
	"repro/internal/safs"
)

func fillRand(rng *rand.Rand, p []float64) {
	for i := range p {
		p[i] = rng.NormFloat64()
	}
}

// roundTripStore writes random partitions and checks ReadPart returns them.
func roundTripStore(t *testing.T, s Store, nrow int64, ncol int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	want := make([][]float64, s.NumParts())
	for p := 0; p < s.NumParts(); p++ {
		rows := PartRowsOf(nrow, s.PartRows(), p)
		buf := make([]float64, rows*ncol)
		fillRand(rng, buf)
		want[p] = buf
		if err := s.WritePart(p, buf); err != nil {
			t.Fatalf("WritePart(%d): %v", p, err)
		}
	}
	got := make([]float64, s.PartRows()*ncol)
	for p := 0; p < s.NumParts(); p++ {
		rows := PartRowsOf(nrow, s.PartRows(), p)
		if err := s.ReadPart(p, got[:rows*ncol]); err != nil {
			t.Fatalf("ReadPart(%d): %v", p, err)
		}
		for i, v := range want[p] {
			if got[i] != v {
				t.Fatalf("part %d elem %d: %g != %g", p, i, got[i], v)
			}
		}
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	topo := numa.NewTopology(2, 1<<14)
	s, err := NewMemStore(topo, 1000, 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	roundTripStore(t, s, 1000, 5)
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreChunkRecycling(t *testing.T) {
	topo := numa.NewTopology(2, 1<<12)        // 512-float chunks
	s, err := NewMemStore(topo, 1024, 1, 256) // 256-float partitions fit chunks
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 256)
	for p := 0; p < s.NumParts(); p++ {
		if err := s.WritePart(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
	idle, _ := topo.PoolStats()
	total := 0
	for _, n := range idle {
		total += n
	}
	if total != s.NumParts() {
		t.Fatalf("freed %d chunks back to pools, want %d", total, s.NumParts())
	}
}

func TestSAFSStoreRoundTrip(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	s, err := NewSAFSStore(fs, "m", 1000, 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	roundTripStore(t, s, 1000, 5)
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionArithmetic(t *testing.T) {
	if got := NumParts(1000, 256); got != 4 {
		t.Fatalf("NumParts=%d", got)
	}
	if got := PartRowsOf(1000, 256, 3); got != 232 {
		t.Fatalf("last part rows=%d", got)
	}
	if got := PartRowsOf(1024, 256, 3); got != 256 {
		t.Fatalf("aligned last part rows=%d", got)
	}
}

// TestPartRowsMustBePowerOfTwo: every store constructor rejects a height
// that is not a power of two, zero included; none picks a height itself.
func TestPartRowsMustBePowerOfTwo(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	saved, err := NewSAFSStore(fs, "m", 100, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer saved.Free()
	for _, rows := range []int{0, -64, 100} {
		if _, err := NewMemStore(nil, 100, 2, rows); err == nil {
			t.Errorf("NewMemStore accepted partition height %d", rows)
		}
		if _, err := NewSAFSStore(fs, "bad", 100, 2, rows); err == nil {
			t.Errorf("NewSAFSStore accepted partition height %d", rows)
		}
		if _, err := OpenSAFSStore(fs, "m", 100, 2, rows); err == nil {
			t.Errorf("OpenSAFSStore accepted partition height %d", rows)
		}
	}
	if _, err := OpenSAFSStore(fs, "m", 100, 2, 64); err != nil {
		t.Errorf("OpenSAFSStore at the saved height: %v", err)
	}
}
