package matrix

import (
	"fmt"
	"sync"

	"repro/internal/numa"
)

// MemStore keeps a tall matrix in memory, one I/O partition at a time, with
// each partition's backing memory homed on the NUMA node that
// Topology.NodeOfPart assigns it — the paper's policy that partition i of
// every matrix lives on the same node. Partitions small enough to fit in a
// pool chunk borrow one (and return it on Free), so memory is recycled
// across matrices of different shapes.
type MemStore struct {
	topo     *numa.Topology
	nrow     int64
	ncol     int
	partRows int

	mu    sync.RWMutex
	parts []memPart
	freed bool
}

type memPart struct {
	data   []float64 // rows*ncol valid elements, row-major
	pooled bool      // whether data came from the node chunk pool
	node   int
}

// NewMemStore allocates an in-memory store for an nrow×ncol matrix. partRows
// must be a power of two. The topology may be nil, in which case the process
// default is used.
func NewMemStore(topo *numa.Topology, nrow int64, ncol, partRows int) (*MemStore, error) {
	if topo == nil {
		topo = numa.Default()
	}
	if err := checkPartRows(partRows); err != nil {
		return nil, err
	}
	if nrow < 0 || ncol <= 0 {
		return nil, fmt.Errorf("matrix: invalid shape %dx%d", nrow, ncol)
	}
	s := &MemStore{topo: topo, nrow: nrow, ncol: ncol, partRows: partRows}
	s.parts = make([]memPart, NumParts(nrow, partRows))
	return s, nil
}

// NRow implements Store.
func (s *MemStore) NRow() int64 { return s.nrow }

// NCol implements Store.
func (s *MemStore) NCol() int { return s.ncol }

// PartRows implements Store.
func (s *MemStore) PartRows() int { return s.partRows }

// NumParts implements Store.
func (s *MemStore) NumParts() int { return len(s.parts) }

// Kind implements Store.
func (s *MemStore) Kind() string { return "mem" }

// NodeOfPart reports the NUMA node holding partition i.
func (s *MemStore) NodeOfPart(i int) int { return s.topo.NodeOfPart(i) }

// ensurePart allocates backing memory for partition i if needed. Caller must
// hold the write lock.
func (s *MemStore) ensurePart(i int) *memPart {
	p := &s.parts[i]
	if p.data != nil {
		return p
	}
	need := rowsOf(s, i) * s.ncol
	node := s.topo.NodeOfPart(i)
	// Borrow a pool chunk only when the partition uses at least half of
	// it; smaller partitions get exact allocations. This keeps the
	// fixed-chunk recycling for the common case without a 128 KB vector
	// partition pinning a 4 MB chunk.
	if cf := s.topo.ChunkFloats(); need <= cf && need*2 >= cf {
		p.data = s.topo.Alloc(node)[:need]
		p.pooled = true
	} else {
		p.data = make([]float64, need)
	}
	p.node = node
	return p
}

// WritePart implements Store.
func (s *MemStore) WritePart(i int, src []float64) error {
	if err := CheckPart(s, i); err != nil {
		return err
	}
	rows := rowsOf(s, i)
	if len(src) < rows*s.ncol {
		return fmt.Errorf("matrix: WritePart %d: buffer %d < %d", i, len(src), rows*s.ncol)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed {
		return fmt.Errorf("matrix: write to freed store")
	}
	copy(s.ensurePart(i).data, src[:rows*s.ncol])
	return nil
}

// ReadPart implements Store.
func (s *MemStore) ReadPart(i int, dst []float64) error {
	if err := CheckPart(s, i); err != nil {
		return err
	}
	rows := rowsOf(s, i)
	if len(dst) < rows*s.ncol {
		return fmt.Errorf("matrix: ReadPart %d: buffer %d < %d", i, len(dst), rows*s.ncol)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.parts[i]
	if p.data == nil {
		// Unwritten partitions read as zeros, like a sparse file.
		zero(dst[:rows*s.ncol])
		return nil
	}
	copy(dst, p.data)
	return nil
}

// PartRef returns a zero-copy read-only view of partition i once it has been
// written. The engine uses this to avoid copying in-memory leaf partitions
// into scratch buffers — the FlashR-IM fast path.
func (s *MemStore) PartRef(i int) ([]float64, bool) {
	if CheckPart(s, i) != nil {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.freed || s.parts[i].data == nil {
		return nil, false
	}
	return s.parts[i].data, true
}

// Free returns pooled chunks to their NUMA nodes and drops all data.
func (s *MemStore) Free() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed {
		return nil
	}
	for i := range s.parts {
		p := &s.parts[i]
		if p.pooled && p.data != nil {
			s.topo.Release(p.node, p.data[:cap(p.data)][:s.topo.ChunkFloats()])
		}
		p.data = nil
	}
	s.freed = true
	return nil
}

func zero(p []float64) {
	for i := range p {
		p[i] = 0
	}
}
