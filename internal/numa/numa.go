// Package numa simulates a non-uniform memory access (NUMA) topology for the
// FlashR execution engine.
//
// The paper runs on a four-socket machine and is careful to (i) allocate the
// I/O partitions of every in-memory matrix in fixed-size chunks spread across
// NUMA nodes, (ii) assign partition i of every matrix in a DAG to the same
// node, and (iii) bind each worker thread to a node so that the partitions it
// materializes are local. Real NUMA placement is an OS concern invisible to
// correctness, so this package reproduces the *policy* and makes it
// observable: a per-node chunk allocator with recycling, a deterministic
// partition→node mapping shared by all matrices, worker→node affinity, and
// counters distinguishing node-local from remote accesses. Tests assert that
// the engine's placement policy yields zero (or near-zero) remote accesses.
package numa

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// DefaultChunkBytes is the size of the fixed memory chunks shared among all
// in-memory matrices (the paper uses 64 MB chunks; we default smaller so that
// laptop-scale runs still exercise multi-chunk paths).
const DefaultChunkBytes = 1 << 22 // 4 MiB

// Topology describes a simulated NUMA machine: a number of nodes and the
// chunk size used by every node-local allocator.
type Topology struct {
	nodes      int
	chunkBytes int
	pools      []*chunkPool

	localAcc  atomic.Int64
	remoteAcc atomic.Int64

	// Reservation ledger: budget is the byte ceiling concurrent passes may
	// reserve against the chunk pools (0 = unlimited); reserved is the sum of
	// grants outstanding. Guarded by memMu — reservations are rare (one per
	// admitted pass), so a mutex beats juggling CAS loops.
	memMu    sync.Mutex
	budget   int64
	reserved int64
}

// NewTopology creates a simulated topology with the given number of NUMA
// nodes. chunkBytes must be a multiple of 8; zero selects DefaultChunkBytes.
func NewTopology(nodes, chunkBytes int) *Topology {
	if nodes <= 0 {
		nodes = 1
	}
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes%8 != 0 {
		panic(fmt.Sprintf("numa: chunk size %d not a multiple of 8", chunkBytes))
	}
	t := &Topology{nodes: nodes, chunkBytes: chunkBytes}
	t.pools = make([]*chunkPool, nodes)
	for i := range t.pools {
		t.pools[i] = newChunkPool(chunkBytes / 8)
	}
	return t
}

// Nodes returns the number of simulated NUMA nodes.
func (t *Topology) Nodes() int { return t.nodes }

// ChunkBytes returns the fixed chunk size in bytes.
func (t *Topology) ChunkBytes() int { return t.chunkBytes }

// ChunkFloats returns the number of float64 elements per chunk.
func (t *Topology) ChunkFloats() int { return t.chunkBytes / 8 }

// NodeOfPart maps an I/O-partition index to its home node. All matrices use
// this mapping, so partition i of matrix A and partition i of matrix B land
// on the same node — the property §3.3 of the paper relies on to avoid
// remote memory access during fused evaluation.
func (t *Topology) NodeOfPart(part int) int { return part % t.nodes }

// NodeOfWorker maps a worker thread index to the node it is bound to.
// Workers are spread evenly over the nodes.
func (t *Topology) NodeOfWorker(worker, totalWorkers int) int {
	if totalWorkers <= 0 {
		return 0
	}
	return worker * t.nodes / totalWorkers
}

// Alloc returns a chunk of exactly ChunkFloats() float64s homed on the given
// node, recycling a previously released chunk when one is available.
func (t *Topology) Alloc(node int) []float64 {
	return t.pools[node%t.nodes].get()
}

// Release returns a chunk obtained from Alloc to its node pool. The chunk
// must have been allocated on the same node.
func (t *Topology) Release(node int, chunk []float64) {
	t.pools[node%t.nodes].put(chunk)
}

// RecordAccess accounts one partition access by a worker: local if the
// worker's node matches the partition's home node, remote otherwise.
func (t *Topology) RecordAccess(workerNode, partNode int) {
	if workerNode == partNode {
		t.localAcc.Add(1)
	} else {
		t.remoteAcc.Add(1)
	}
}

// Stats reports cumulative local and remote partition accesses.
func (t *Topology) Stats() (local, remote int64) {
	return t.localAcc.Load(), t.remoteAcc.Load()
}

// SetMemBudget installs the byte ceiling that concurrent materialization
// passes may reserve against this topology's chunk pools (0 = unlimited).
// Lowering the budget below the bytes already reserved only affects future
// reservations; outstanding grants are never revoked.
func (t *Topology) SetMemBudget(bytes int64) {
	t.memMu.Lock()
	t.budget = bytes
	t.memMu.Unlock()
}

// MemBudget returns the configured reservation ceiling (0 = unlimited).
func (t *Topology) MemBudget() int64 {
	t.memMu.Lock()
	defer t.memMu.Unlock()
	return t.budget
}

// TryReserve attempts to reserve bytes of chunk-pool headroom for a pass.
// It succeeds when the topology has no budget or the grant fits; the caller
// must pair a success with ReleaseMem.
func (t *Topology) TryReserve(bytes int64) bool {
	if bytes < 0 {
		bytes = 0
	}
	t.memMu.Lock()
	defer t.memMu.Unlock()
	if t.budget > 0 && t.reserved+bytes > t.budget {
		return false
	}
	t.reserved += bytes
	return true
}

// ForceReserve records a reservation even when it overshoots the budget —
// the admission path uses this for a pass that is alone on the engine, so an
// oversized pass can always run (it just runs by itself).
func (t *Topology) ForceReserve(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	t.memMu.Lock()
	t.reserved += bytes
	t.memMu.Unlock()
}

// ReleaseMem returns a reservation made by TryReserve or ForceReserve.
func (t *Topology) ReleaseMem(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	t.memMu.Lock()
	t.reserved -= bytes
	if t.reserved < 0 {
		t.reserved = 0
	}
	t.memMu.Unlock()
}

// MemReserved returns the bytes currently reserved by admitted passes.
func (t *Topology) MemReserved() int64 {
	t.memMu.Lock()
	defer t.memMu.Unlock()
	return t.reserved
}

// PoolStats reports, per node, how many chunks are currently idle in the
// pool and how many were ever allocated fresh.
func (t *Topology) PoolStats() (idle, allocated []int) {
	idle = make([]int, t.nodes)
	allocated = make([]int, t.nodes)
	for i, p := range t.pools {
		idle[i], allocated[i] = p.stats()
	}
	return idle, allocated
}

// RegisterMetrics registers the topology's access counters, the reservation
// ledger, and per-node chunk-pool gauges with a metrics registry.
func (t *Topology) RegisterMetrics(reg *trace.Registry) {
	reg.CounterFunc("flashr_numa_local_accesses_total",
		"Partition accesses served from the worker's own NUMA node.",
		func() float64 { l, _ := t.Stats(); return float64(l) })
	reg.CounterFunc("flashr_numa_remote_accesses_total",
		"Partition accesses crossing NUMA nodes.",
		func() float64 { _, r := t.Stats(); return float64(r) })
	reg.GaugeFunc("flashr_numa_mem_budget_bytes",
		"Reservation ceiling for concurrent passes (0 = unlimited).",
		func() float64 { return float64(t.MemBudget()) })
	reg.GaugeFunc("flashr_numa_mem_reserved_bytes",
		"Bytes currently reserved by admitted passes.",
		func() float64 { return float64(t.MemReserved()) })
	for i, p := range t.pools {
		p := p
		node := trace.Label{Key: "node", Value: strconv.Itoa(i)}
		reg.GaugeFunc("flashr_numa_pool_idle_chunks",
			"Chunks idle in the node's free list.",
			func() float64 { idle, _ := p.stats(); return float64(idle) }, node)
		reg.GaugeFunc("flashr_numa_pool_minted_chunks",
			"Chunks ever allocated fresh on the node.",
			func() float64 { _, minted := p.stats(); return float64(minted) }, node)
	}
}

// chunkPool recycles fixed-size []float64 chunks. Keeping chunks uniform
// across all matrices lets memory be recycled between matrices of different
// shapes, which is the point of the paper's fixed-size chunk design. The
// free list is capped so long-lived processes return surplus memory to the
// garbage collector instead of hoarding every chunk ever freed.
type chunkPool struct {
	mu      sync.Mutex
	floats  int
	free    [][]float64
	minted  int
	maxIdle int
}

// defaultMaxIdleChunks bounds each node's free list (16 × 4 MiB = 64 MiB
// per node at the default chunk size — enough for steady-state reuse
// without long-lived processes hoarding freed matrices).
const defaultMaxIdleChunks = 16

func newChunkPool(floats int) *chunkPool {
	return &chunkPool{floats: floats, maxIdle: defaultMaxIdleChunks}
}

func (p *chunkPool) get() []float64 {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c
	}
	p.minted++
	p.mu.Unlock()
	return make([]float64, p.floats)
}

func (p *chunkPool) put(c []float64) {
	if len(c) != p.floats {
		panic(fmt.Sprintf("numa: released chunk of %d floats into pool of %d", len(c), p.floats))
	}
	p.mu.Lock()
	if len(p.free) < p.maxIdle {
		p.free = append(p.free, c)
	}
	p.mu.Unlock()
}

func (p *chunkPool) stats() (idle, minted int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free), p.minted
}

var (
	defaultTopo     *Topology
	defaultTopoOnce sync.Once
	defaultTopoMu   sync.Mutex
)

// Default returns the process-wide topology (4 nodes, default chunk size),
// creating it on first use.
func Default() *Topology {
	defaultTopoOnce.Do(func() {
		defaultTopoMu.Lock()
		if defaultTopo == nil {
			defaultTopo = NewTopology(4, 0)
		}
		defaultTopoMu.Unlock()
	})
	return defaultTopo
}
