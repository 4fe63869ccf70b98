package numa

import (
	"sync"
	"testing"
)

func TestTopologyBasics(t *testing.T) {
	topo := NewTopology(4, 1<<12)
	if topo.Nodes() != 4 {
		t.Fatalf("nodes=%d", topo.Nodes())
	}
	if topo.ChunkFloats() != 512 {
		t.Fatalf("chunk floats=%d", topo.ChunkFloats())
	}
	// Partition mapping is round-robin and stable.
	for p := 0; p < 16; p++ {
		if topo.NodeOfPart(p) != p%4 {
			t.Fatalf("NodeOfPart(%d)=%d", p, topo.NodeOfPart(p))
		}
	}
	// Worker affinity spreads workers over nodes.
	seen := map[int]bool{}
	for w := 0; w < 8; w++ {
		n := topo.NodeOfWorker(w, 8)
		if n < 0 || n >= 4 {
			t.Fatalf("worker %d on node %d", w, n)
		}
		seen[n] = true
	}
	if len(seen) != 4 {
		t.Fatalf("workers cover %d nodes, want 4", len(seen))
	}
}

func TestChunkRecycling(t *testing.T) {
	topo := NewTopology(2, 1<<12)
	a := topo.Alloc(0)
	b := topo.Alloc(0)
	if len(a) != topo.ChunkFloats() || len(b) != topo.ChunkFloats() {
		t.Fatal("wrong chunk size")
	}
	topo.Release(0, a)
	c := topo.Alloc(0)
	if &c[0] != &a[0] {
		t.Fatal("released chunk not recycled")
	}
	idle, minted := topo.PoolStats()
	if idle[0] != 0 || minted[0] != 2 {
		t.Fatalf("idle=%v minted=%v", idle, minted)
	}
}

func TestReleaseWrongSizePanics(t *testing.T) {
	topo := NewTopology(1, 1<<12)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong-size release")
		}
	}()
	topo.Release(0, make([]float64, 7))
}

func TestAccessAccounting(t *testing.T) {
	topo := NewTopology(2, 1<<12)
	topo.RecordAccess(0, 0)
	topo.RecordAccess(0, 1)
	topo.RecordAccess(1, 1)
	local, remote := topo.Stats()
	if local != 2 || remote != 1 {
		t.Fatalf("local=%d remote=%d", local, remote)
	}
}

func TestConcurrentAllocRelease(t *testing.T) {
	topo := NewTopology(4, 1<<10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := w % 4
			for i := 0; i < 200; i++ {
				c := topo.Alloc(node)
				c[0] = float64(i)
				topo.Release(node, c)
			}
		}(w)
	}
	wg.Wait()
}

func TestInvalidChunkSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unaligned chunk size")
		}
	}()
	NewTopology(1, 1001)
}
