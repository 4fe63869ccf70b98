package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/trace"
)

// ledger turns one traced run into the per-layer metrics. Sources, as tagged
// in README.md: B harness span, S MaterializeStats delta, F safs.Stats delta,
// T self time from the engine's span tree, P probe. Counts and times are per
// round of the traced phase; a metric whose layer the workload does not
// exercise reads 0.
type ledger struct {
	cfg    runConfig
	e      *env
	res    *Result
	timed  phase // untraced rounds of this run
	traced phase
	ceil   Ceilings
	p50    float64 // median untraced round
}

func (l *ledger) put(name string, v float64, unit string) {
	l.res.Metrics[name] = Metric{v, unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stepP50 is the median untraced wall time of the named step, 0 when the
// workload has no such step.
func (l *ledger) stepP50(name string) float64 {
	var walls []float64
	for _, sr := range l.timed.steps {
		if sr.name == name {
			walls = append(walls, sr.wall.Seconds())
		}
	}
	return median(walls)
}

func (l *ledger) fill() error {
	tr := l.traced
	rounds := float64(len(tr.rounds))
	workers := float64(l.e.workers)

	// B: step times, from the untraced rounds.
	for _, w := range workloads {
		for _, st := range w.step {
			l.put(st.layer+"."+st.name+"_p50_s", l.stepP50(st.name), "s")
		}
	}

	// S / F: counter changes over the traced phase.
	ms, fs, local, remote := tr.total.ms, tr.total.fs, tr.total.local, tr.total.remote
	var stepWall time.Duration
	for _, sr := range tr.steps {
		stepWall += sr.wall
	}
	perRound := func(v float64) float64 { return v / rounds }
	const mib = 1 << 20
	l.put("core.passes", perRound(float64(ms.Passes)), "count")
	l.put("core.parts", perRound(float64(ms.Parts)), "count")
	l.put("core.chunks", perRound(float64(ms.Chunks)), "count")
	l.put("core.nodes_executed", perRound(float64(ms.NodesExecuted)), "count")
	l.put("core.cse_unifications", perRound(float64(ms.CSEUnifications)), "count")
	l.put("core.rewrites", perRound(float64(ms.Rewrites)), "count")
	l.put("core.read_wait_s", perRound(ms.ReadWait.Seconds()), "s")
	l.put("core.write_stall_s", perRound(ms.WriteStall.Seconds()), "s")
	l.put("core.drain_s", perRound(ms.WriteDrain.Seconds()), "s")
	l.put("core.prefetch_hit_ratio", ratio(float64(ms.PrefetchHits), float64(ms.PrefetchHits+ms.PrefetchMisses)), "ratio")
	l.put("core.cache_hit_ratio", ratio(float64(ms.CacheHits), float64(ms.CacheHits+ms.CacheMisses)), "ratio")
	l.put("core.cache_hit_mb", perRound(float64(ms.CacheHitBytes)/mib), "MiB")
	l.put("ml.driver_share", 1-ratio(ms.Wall.Seconds(), stepWall.Seconds()), "ratio")

	l.put("safs.read_mb", perRound(float64(fs.BytesRead)/mib), "MiB")
	l.put("safs.write_mb", perRound(float64(fs.BytesWritten)/mib), "MiB")
	l.put("safs.reads", perRound(float64(fs.Reads)), "count")
	l.put("safs.writes", perRound(float64(fs.Writes)), "count")
	l.put("safs.write_jobs", perRound(float64(ms.WriteJobs)), "count")
	l.put("safs.io_retries", perRound(float64(fs.Retries)), "count")
	l.put("safs.checksum_failures", perRound(float64(fs.ChecksumFailures)), "count")
	l.put("safs.verify_s", perRound(fs.VerifyTime.Seconds()), "s")
	l.put("safs.write_s", perRound(ms.WriteTime.Seconds()), "s")

	l.put("numa.remote_access_ratio", ratio(float64(remote), float64(local+remote)), "ratio")
	_, minted := l.e.s.Engine().Config().Topo.PoolStats()
	var chunks int
	for _, c := range minted {
		chunks += c
	}
	l.put("numa.chunks_minted", float64(chunks), "count")

	// T: self times from the engine's span tree.
	self, total := selfTimes(tr.data.Events), totalTimes(tr.data.Events)
	sec := func(k trace.Kind) float64 { return perRound(self[k].Seconds()) }
	l.put("core.plan_s", sec(trace.KindCacheLookup), "s")
	l.put("core.rewrite_s", sec(trace.KindRewrite), "s")
	l.put("core.admit_s", sec(trace.KindAdmit), "s")
	l.put("core.publish_s", sec(trace.KindPublish), "s")
	l.put("core.compute_s", sec(trace.KindCompute), "s")
	l.put("core.read_s", sec(trace.KindRead), "s")
	lanes := workers * total[trace.KindPass].Seconds()
	l.put("core.compute_share", ratio(self[trace.KindCompute].Seconds(), lanes), "ratio")
	l.put("core.worker_idle_share", 1-ratio(total[trace.KindSuperTask].Seconds(), lanes), "ratio")
	l.put("trace.events", perRound(float64(len(tr.data.Events))), "count")
	l.put("trace.overhead_pct", 100*(ratio(median(tr.rounds), l.p50)-1), "%")

	// Computed: bytes the round's passes scan and its nominal flops.
	byName := map[string]step{}
	for _, st := range l.cfg.wl.step {
		byName[st.name] = st
	}
	var scanned, flops float64
	for _, sr := range tr.steps {
		st := byName[sr.name]
		scanned += float64(sr.ms.Passes) * float64(st.leafBytes(l.e.d))
		if st.flops != nil {
			flops += st.flops(l.e.d)
		}
	}
	l.put("bench.scan_gbps", ratio(perRound(scanned)/1e9, l.p50), "GB/s")
	l.put("blas.step_gflops", ratio(perRound(flops)/1e9, l.p50*workers), "GFLOP/s")

	// process: from the untraced rounds, so the tracer's own buffers are not
	// counted.
	t := l.timed
	timedRounds := float64(len(t.rounds))
	l.put("process.heap_peak_mb", float64(t.heapPeak)/mib, "MiB")
	l.put("process.alloc_mb_per_round", float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc)/mib/timedRounds, "MiB")
	l.put("process.gc_pause_ms", float64(t.mem1.PauseTotalNs-t.mem0.PauseTotalNs)/1e6/timedRounds, "ms")

	l.put("workload.gen_s", l.e.genS, "s")
	rows := l.e.d.x.NRow()
	if l.e.d.g != nil {
		rows += l.e.d.g.NRow()
	}
	l.put("workload.gen_mrows_per_s", ratio(float64(rows)/1e6, l.e.genS), "Mrows/s")

	l.put("host.memcpy_gbps", l.ceil.MemcpyGBps, "GB/s")
	l.put("host.fma_gflops", l.ceil.FMAGflops, "GFLOP/s")
	l.put("host.crc32c_gbps", l.ceil.CRC32CGBps, "GB/s")
	return l.probes()
}

// probes fills the P metrics.
func (l *ledger) probes() error {
	gemm, gemmTA, syrk := blasProbe(l.cfg.sz.probeTime)
	l.put("blas.gemm_gflops", gemm, "GFLOP/s")
	l.put("blas.gemm_ta_gflops", gemmTA, "GFLOP/s")
	l.put("blas.syrk_gflops", syrk, "GFLOP/s")
	l.put("blas.roofline_frac", ratio(maxOf([]float64{gemm, gemmTA, syrk}), l.ceil.FMAGflops), "ratio")

	for _, n := range []string{"safs.read_gbps", "safs.write_gbps", "matrix.em_readpart_gbps", "matrix.em_writepart_gbps", "matrix.mem_readpart_gbps"} {
		l.put(n, 0, "GB/s")
	}
	l.put("safs.read_vs_memcpy", 0, "ratio")
	l.put("safs.tokenbucket_frac", 0, "ratio")
	l.put("bench.em_im_ratio_logistic", 0, "ratio")

	eng := l.e.s.Engine()
	cols := int(l.e.d.x.NCol())
	probeRows := int64(l.cfg.sz.probeParts) * int64(eng.PartRows())
	if !l.cfg.wl.em {
		st, err := eng.NewMemStoreFor(probeRows, cols)
		if err != nil {
			return err
		}
		rd, _, err := storeProbe(st)
		l.put("matrix.mem_readpart_gbps", rd, "GB/s")
		return err
	}
	rd, wr, frac, err := safsProbe(filepath.Join(l.cfg.workDir, "probe"), eng.PartRows()*cols*8, l.cfg.sz.probeParts)
	if err != nil {
		return fmt.Errorf("safs probe: %w", err)
	}
	l.put("safs.read_gbps", rd, "GB/s")
	l.put("safs.write_gbps", wr, "GB/s")
	l.put("safs.read_vs_memcpy", ratio(rd, l.ceil.MemcpyGBps), "ratio")
	l.put("safs.tokenbucket_frac", frac, "ratio")
	st, err := eng.NewStore(probeRows, cols)
	if err != nil {
		return err
	}
	if rd, wr, err = storeProbe(st); err != nil {
		return fmt.Errorf("matrix probe: %w", err)
	}
	l.put("matrix.em_readpart_gbps", rd, "GB/s")
	l.put("matrix.em_writepart_gbps", wr, "GB/s")

	// The paper's EM/IM ratio: this workload's logistic pass against the
	// same call on an in-memory session over the same generated data.
	var em stepRec
	for _, sr := range l.traced.steps {
		if sr.name == "logistic" {
			em.ms.Add(sr.ms)
		}
	}
	if em.ms.Passes > 0 {
		im, err := imLogisticPassTime(l.e.d.x.NRow(), l.cfg.seed)
		if err != nil {
			return fmt.Errorf("in-memory logistic probe: %w", err)
		}
		l.put("bench.em_im_ratio_logistic", ratio(em.ms.Wall.Seconds()/float64(em.ms.Passes), im), "ratio")
	}
	return nil
}

// printSteps lists, per step of the traced rounds, the engine passes that
// time containment attached to it and their self times.
func (l *ledger) printSteps(passStep map[int64]int) {
	type agg struct {
		passes        int
		wall          float64
		compute, read float64
	}
	byStep := map[int][]trace.Event{}
	for _, ev := range l.traced.data.Events {
		if id, ok := passStep[ev.Pass]; ok {
			byStep[id] = append(byStep[id], ev)
		}
	}
	byName := map[string]*agg{}
	var names []string
	for _, sr := range l.traced.steps {
		a := byName[sr.name]
		if a == nil {
			a = &agg{}
			byName[sr.name] = a
			names = append(names, sr.name)
		}
		self := selfTimes(byStep[sr.span])
		a.wall += sr.wall.Seconds()
		a.compute += self[trace.KindCompute].Seconds()
		a.read += self[trace.KindRead].Seconds()
		for _, ev := range byStep[sr.span] {
			if ev.Kind == trace.KindPass {
				a.passes++
			}
		}
	}
	sort.Strings(names)
	fmt.Fprintf(l.cfg.log, "traced phase, %d rounds (worker-seconds by step; passes attached by time containment):\n", len(l.traced.rounds))
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(l.cfg.log, "  step %-20s wall %8.4f s  passes %4d  compute %8.4f s  read %8.4f s\n", n, a.wall, a.passes, a.compute, a.read)
	}
}
