package core

import (
	"fmt"
	"strings"
	"time"
)

// MaterializeStats is the per-materialization observability record: how much
// I/O a pass moved, how well the read prefetcher and the write-behind queue
// overlapped it with compute, and where the wall time went. One record is
// produced per Materialize/MaterializeCtx call (covering every internal pass
// under FuseNone) and accumulated into an engine-lifetime total.
//
// The write-overlap proof the paper's §3.3 pipeline promises is visible
// here: WriteStall (time compute spent blocked on the write-behind queue's
// depth bound) should be well below WriteTime (time the writers spent inside
// the SAFS token-bucket).
type MaterializeStats struct {
	// Owner labels the session/client the pass ran for (PassOptions.Owner;
	// empty for untagged passes).
	Owner string
	// Batch labels the request batch the pass coalesced (PassOptions.Batch;
	// empty for passes submitted outside a batching front-end).
	Batch string
	// Fuse is the fusion level the materialization ran at.
	Fuse FuseLevel
	// Wall is the end-to-end Materialize duration.
	Wall time.Duration

	// Passes, Parts and Chunks count parallel passes, I/O partitions and
	// Pcache chunks processed.
	Passes int64
	Parts  int64
	Chunks int64

	// BytesRead counts leaf partition bytes copied into compute buffers
	// (zero-copy in-memory references are not counted). BytesWritten counts
	// tall-output partition bytes handed to stores.
	BytesRead    int64
	BytesWritten int64

	// PrefetchHits counts leaf partition loads served by the read-ahead
	// pipeline; PrefetchMisses counts loads that fell back to a synchronous
	// read.
	PrefetchHits   int64
	PrefetchMisses int64

	// ReadWait is time workers spent blocked on in-flight prefetch reads.
	ReadWait time.Duration
	// WriteStall is time compute spent blocked handing partitions to the
	// write queue.
	WriteStall time.Duration
	// WriteTime is cumulative time inside partition writes, summed across
	// writers.
	WriteTime time.Duration
	// WriteDrain is time spent at the end-of-pass barrier waiting for
	// in-flight writes.
	WriteDrain time.Duration
	// WriteJobs counts partitions that went through the write-behind queue.
	WriteJobs int64

	// PrefetchAbandoned counts prefetched partitions a worker drained without
	// consuming on an exit path (its own failure, a peer's, or cancellation).
	// Always zero on a pass that runs to completion.
	PrefetchAbandoned int64

	// SAFS integrity counters attributed to this pass (deltas of the array's
	// cumulative counters around the pass): stripe reads failing CRC32C
	// verification, retry attempts after transient errors, and requests that
	// failed at least once but succeeded within the retry budget. All zero on
	// a fault-free pass.
	ChecksumFailures int64
	IORetries        int64
	RecoveredReads   int64
	RecoveredWrites  int64
	// VerifyTime is time the SAFS drive workers spent on integrity work
	// (CRC32C computation plus partial-stripe read-modify-checksum cycles).
	VerifyTime time.Duration

	// Hash-consing and result-cache counters. CSEUnifications counts nodes
	// and sinks deduplicated within the pass (scheduled once instead of N
	// times); NodesExecuted counts virtual nodes actually evaluated, the
	// direct measure of work CSE and the cache removed. CacheHits/Misses
	// count sub-DAG results served from / inserted as candidates into the
	// cross-materialize cache, CacheHitBytes the result bytes served without
	// recomputation or I/O, and CacheEvictions the LRU evictions this pass's
	// inserts forced.
	CSEUnifications int64
	NodesExecuted   int64
	CacheHits       int64
	CacheMisses     int64
	CacheEvictions  int64
	CacheHitBytes   int64

	// Algebraic-rewrite counters (optimize.go). Rewrites is total rule
	// applications; the per-family counters break it down (view push-down,
	// crossprod self-recognition, aggregation folds, dead-input
	// eliminations). RewriteDeadNodes counts the virtual nodes those
	// eliminations disconnected — subtrees whose leaves are never read.
	Rewrites          int64
	RewriteViews      int64
	RewriteCrossProds int64
	RewriteAggFolds   int64
	RewriteDCE        int64
	RewriteDeadNodes  int64

	// Sharded-execution counters (internal/shard), all zero on a local pass.
	// ShardPasses counts worker-side passes executed for this
	// materialization (one per active shard, more under FuseNone);
	// ShardAggRounds counts aggregation exchange rounds (one per remote pass
	// that combined sink partials); ShardBytesSent/Recv count coordinator
	// wire traffic (programs, leaf pushes, partials, carries); ShardRetries
	// counts transport-level retry attempts after transient faults;
	// ShardWorkerRead/Written sum the workers' own partition I/O — kept
	// separate from BytesRead/Written, which remain strictly local I/O so
	// the trace conservation invariants are unchanged.
	ShardPasses        int64
	ShardAggRounds     int64
	ShardBytesSent     int64
	ShardBytesRecv     int64
	ShardRetries       int64
	ShardWorkerRead    int64
	ShardWorkerWritten int64
	// ShardRecoveries counts worker recoveries (re-hello + re-push + lineage
	// replay after an epoch-fence rejection); ShardReplayedKeeps counts kept
	// talls reconstructed by those replays.
	ShardRecoveries    int64
	ShardReplayedKeeps int64
}

// statCounter describes one summed MaterializeStats field: how to reach it
// and the counter family that exports it. A time.Duration field is reached
// as its int64 nanoseconds and exported in seconds.
type statCounter struct {
	name, help string
	field      func(*MaterializeStats) *int64
	seconds    bool
}

func count(name, help string, f func(*MaterializeStats) *int64) statCounter {
	return statCounter{name: name, help: help, field: f}
}

func seconds(name, help string, f func(*MaterializeStats) *time.Duration) statCounter {
	return statCounter{name: name, help: help, seconds: true,
		field: func(s *MaterializeStats) *int64 { return (*int64)(f(s)) }}
}

// statCounters declares every summed MaterializeStats field once, in metric
// registration order. Add, Sub and RegisterStatsMetrics loop over it.
var statCounters = []statCounter{
	count("flashr_materialize_passes_total", "Parallel materialization passes executed.",
		func(s *MaterializeStats) *int64 { return &s.Passes }),
	count("flashr_materialize_parts_total", "I/O partitions processed.",
		func(s *MaterializeStats) *int64 { return &s.Parts }),
	count("flashr_materialize_chunks_total", "Pcache chunks evaluated.",
		func(s *MaterializeStats) *int64 { return &s.Chunks }),
	count("flashr_materialize_read_bytes_total", "Leaf partition bytes copied into compute buffers.",
		func(s *MaterializeStats) *int64 { return &s.BytesRead }),
	count("flashr_materialize_written_bytes_total", "Tall-output partition bytes handed to stores.",
		func(s *MaterializeStats) *int64 { return &s.BytesWritten }),
	count("flashr_materialize_prefetch_hits_total", "Leaf loads served by the read-ahead pipeline.",
		func(s *MaterializeStats) *int64 { return &s.PrefetchHits }),
	count("flashr_materialize_prefetch_misses_total", "Leaf loads that fell back to synchronous reads.",
		func(s *MaterializeStats) *int64 { return &s.PrefetchMisses }),
	count("flashr_materialize_prefetch_abandoned_total", "Prefetched partitions drained unconsumed on exit paths.",
		func(s *MaterializeStats) *int64 { return &s.PrefetchAbandoned }),
	count("flashr_materialize_write_jobs_total", "Partitions routed through the write-behind queue.",
		func(s *MaterializeStats) *int64 { return &s.WriteJobs }),
	count("flashr_materialize_checksum_failures_total", "Stripe reads failing CRC32C verification, attributed to passes.",
		func(s *MaterializeStats) *int64 { return &s.ChecksumFailures }),
	count("flashr_materialize_io_retries_total", "SAFS retry attempts attributed to passes.",
		func(s *MaterializeStats) *int64 { return &s.IORetries }),
	count("flashr_materialize_recovered_reads_total", "Reads recovered within the retry budget, attributed to passes.",
		func(s *MaterializeStats) *int64 { return &s.RecoveredReads }),
	count("flashr_materialize_recovered_writes_total", "Writes recovered within the retry budget, attributed to passes.",
		func(s *MaterializeStats) *int64 { return &s.RecoveredWrites }),
	count("flashr_materialize_cse_unifications_total", "Nodes and sinks deduplicated within passes.",
		func(s *MaterializeStats) *int64 { return &s.CSEUnifications }),
	count("flashr_materialize_nodes_executed_total", "Virtual matrix nodes actually evaluated.",
		func(s *MaterializeStats) *int64 { return &s.NodesExecuted }),
	count("flashr_materialize_cache_hits_total", "Sub-DAG results served from the result cache.",
		func(s *MaterializeStats) *int64 { return &s.CacheHits }),
	count("flashr_materialize_cache_misses_total", "Sub-DAG cache candidates this engine had to compute.",
		func(s *MaterializeStats) *int64 { return &s.CacheMisses }),
	count("flashr_materialize_cache_evictions_total", "Result-cache LRU evictions.",
		func(s *MaterializeStats) *int64 { return &s.CacheEvictions }),
	count("flashr_materialize_cache_hit_bytes_total", "Result bytes served without recomputation or I/O.",
		func(s *MaterializeStats) *int64 { return &s.CacheHitBytes }),
	count("flashr_materialize_rewrites_total", "Algebraic rewrite rule applications.",
		func(s *MaterializeStats) *int64 { return &s.Rewrites }),
	count("flashr_materialize_rewrite_views_total", "View push-down rewrites (column-selection elimination/composition/push-down).",
		func(s *MaterializeStats) *int64 { return &s.RewriteViews }),
	count("flashr_materialize_rewrite_crossprods_total", "Crossprod self-recognition rewrites (GemmTA to Syrk).",
		func(s *MaterializeStats) *int64 { return &s.RewriteCrossProds }),
	count("flashr_materialize_rewrite_aggfolds_total", "Aggregation folds into affine publish transforms.",
		func(s *MaterializeStats) *int64 { return &s.RewriteAggFolds }),
	count("flashr_materialize_rewrite_dce_total", "Dead-input eliminations applied.",
		func(s *MaterializeStats) *int64 { return &s.RewriteDCE }),
	count("flashr_materialize_rewrite_dead_nodes_total", "Virtual nodes disconnected by dead-input elimination.",
		func(s *MaterializeStats) *int64 { return &s.RewriteDeadNodes }),
	count("flashr_materialize_shard_passes_total", "Worker-side passes executed by the sharded coordinator.",
		func(s *MaterializeStats) *int64 { return &s.ShardPasses }),
	count("flashr_materialize_shard_agg_rounds_total", "Cross-shard aggregation exchange rounds.",
		func(s *MaterializeStats) *int64 { return &s.ShardAggRounds }),
	count("flashr_materialize_shard_sent_bytes_total", "Coordinator wire bytes sent to shard workers.",
		func(s *MaterializeStats) *int64 { return &s.ShardBytesSent }),
	count("flashr_materialize_shard_recv_bytes_total", "Coordinator wire bytes received from shard workers.",
		func(s *MaterializeStats) *int64 { return &s.ShardBytesRecv }),
	count("flashr_materialize_shard_retries_total", "Transport retries after transient shard faults.",
		func(s *MaterializeStats) *int64 { return &s.ShardRetries }),
	count("flashr_materialize_shard_worker_read_bytes_total", "Partition bytes read by shard workers.",
		func(s *MaterializeStats) *int64 { return &s.ShardWorkerRead }),
	count("flashr_materialize_shard_worker_written_bytes_total", "Partition bytes written by shard workers.",
		func(s *MaterializeStats) *int64 { return &s.ShardWorkerWritten }),
	count("flashr_materialize_shard_recoveries_total", "Worker recoveries (re-hello, re-push, lineage replay) after epoch-fence rejections.",
		func(s *MaterializeStats) *int64 { return &s.ShardRecoveries }),
	count("flashr_materialize_shard_replayed_keeps_total", "Kept talls reconstructed by lineage replay during worker recovery.",
		func(s *MaterializeStats) *int64 { return &s.ShardReplayedKeeps }),
	seconds("flashr_materialize_wall_seconds_total", "End-to-end Materialize wall time.",
		func(s *MaterializeStats) *time.Duration { return &s.Wall }),
	seconds("flashr_materialize_read_wait_seconds_total", "Worker time blocked on in-flight prefetch reads.",
		func(s *MaterializeStats) *time.Duration { return &s.ReadWait }),
	seconds("flashr_materialize_write_stall_seconds_total", "Compute time blocked handing partitions to the write queue.",
		func(s *MaterializeStats) *time.Duration { return &s.WriteStall }),
	seconds("flashr_materialize_write_seconds_total", "Cumulative time inside partition writes.",
		func(s *MaterializeStats) *time.Duration { return &s.WriteTime }),
	seconds("flashr_materialize_write_drain_seconds_total", "Time at the end-of-pass write-behind drain barrier.",
		func(s *MaterializeStats) *time.Duration { return &s.WriteDrain }),
	seconds("flashr_materialize_verify_seconds_total", "SAFS integrity work attributed to passes.",
		func(s *MaterializeStats) *time.Duration { return &s.VerifyTime }),
}

// Add accumulates o into s (counters sum; Fuse takes o's value so a running
// total reflects the latest configuration).
func (s *MaterializeStats) Add(o MaterializeStats) {
	if o.Owner != "" {
		s.Owner = o.Owner
	}
	if o.Batch != "" {
		s.Batch = o.Batch
	}
	s.Fuse = o.Fuse
	for _, c := range statCounters {
		*c.field(s) += *c.field(&o)
	}
}

// Sub returns s minus o counter by counter — the delta between two
// snapshots of an engine's running total (Fuse comes from s).
func (s MaterializeStats) Sub(o MaterializeStats) MaterializeStats {
	for _, c := range statCounters {
		*c.field(&s) -= *c.field(&o)
	}
	return s
}

// String renders a compact single-line summary for benchmark output.
func (s MaterializeStats) String() string {
	var b strings.Builder
	if s.Owner != "" {
		fmt.Fprintf(&b, "owner=%s ", s.Owner)
	}
	fmt.Fprintf(&b, "fuse=%s wall=%s passes=%d parts=%d", s.Fuse, round(s.Wall), s.Passes, s.Parts)
	fmt.Fprintf(&b, " read=%s written=%s", mib(s.BytesRead), mib(s.BytesWritten))
	fmt.Fprintf(&b, " pf=%d/%d rwait=%s", s.PrefetchHits, s.PrefetchMisses, round(s.ReadWait))
	fmt.Fprintf(&b, " wstall=%s wtime=%s wdrain=%s",
		round(s.WriteStall), round(s.WriteTime), round(s.WriteDrain))
	fmt.Fprintf(&b, " verify=%s", round(s.VerifyTime))
	fmt.Fprintf(&b, " nodes=%d", s.NodesExecuted)
	if s.CSEUnifications != 0 || s.CacheHits != 0 || s.CacheMisses != 0 {
		fmt.Fprintf(&b, " cse=%d hit=%d/%d saved=%s evict=%d",
			s.CSEUnifications, s.CacheHits, s.CacheMisses, mib(s.CacheHitBytes), s.CacheEvictions)
	}
	if s.Rewrites != 0 {
		fmt.Fprintf(&b, " rw=%d (view=%d xprod=%d fold=%d dce=%d dead=%d)",
			s.Rewrites, s.RewriteViews, s.RewriteCrossProds, s.RewriteAggFolds,
			s.RewriteDCE, s.RewriteDeadNodes)
	}
	if s.ChecksumFailures != 0 || s.IORetries != 0 || s.RecoveredReads != 0 || s.RecoveredWrites != 0 {
		fmt.Fprintf(&b, " csfail=%d retries=%d recovered=%d/%d",
			s.ChecksumFailures, s.IORetries, s.RecoveredReads, s.RecoveredWrites)
	}
	if s.PrefetchAbandoned != 0 {
		fmt.Fprintf(&b, " pfabandoned=%d", s.PrefetchAbandoned)
	}
	if s.ShardPasses != 0 {
		fmt.Fprintf(&b, " shard(passes=%d rounds=%d sent=%s recv=%s wread=%s wwritten=%s retries=%d)",
			s.ShardPasses, s.ShardAggRounds, mib(s.ShardBytesSent), mib(s.ShardBytesRecv),
			mib(s.ShardWorkerRead), mib(s.ShardWorkerWritten), s.ShardRetries)
	}
	if s.ShardRecoveries != 0 {
		fmt.Fprintf(&b, " recoveries=%d replayed=%d", s.ShardRecoveries, s.ShardReplayedKeeps)
	}
	return b.String()
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

func mib(n int64) string {
	return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
}
