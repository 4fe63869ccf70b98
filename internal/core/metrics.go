package core

import (
	"time"

	"repro/internal/trace"
)

// RegisterStatsMetrics registers a MaterializeStats source as counter
// families on reg. snap must return a self-consistent snapshot (the engine
// and session totals do: they are copied under a mutex). The snapshot is
// taken once per collection via the registry's OnCollect hook, so every
// family of one scrape comes from the same MaterializeStats value — the fix
// for torn reads when a scrape races an in-flight pass completing.
//
// owner, when non-empty, labels every series (per-session registries).
func RegisterStatsMetrics(reg *trace.Registry, owner string, snap func() MaterializeStats) {
	var labels []trace.Label
	if owner != "" {
		labels = []trace.Label{{Key: "owner", Value: owner}}
	}
	var cur MaterializeStats
	reg.OnCollect(func() { cur = snap() })
	for _, c := range statCounters {
		reg.CounterFunc(c.name, c.help, func() float64 {
			v := *c.field(&cur)
			if c.seconds {
				return time.Duration(v).Seconds()
			}
			return float64(v)
		}, labels...)
	}
}

// Metrics returns the engine's metrics registry, building it on first use:
// the engine-lifetime MaterializeStats total, scheduler counters, admission
// gauges, the NUMA topology, and (when attached) the SSD array.
func (e *Engine) Metrics() *trace.Registry {
	e.metricsOnce.Do(func() {
		reg := trace.NewRegistry()
		RegisterStatsMetrics(reg, "", e.TotalMaterializeStats)
		reg.GaugeFunc("flashr_engine_passes_running", "Admitted passes currently executing.",
			func() float64 { return float64(e.arb.running()) })
		reg.GaugeFunc("flashr_engine_passes_queued", "Passes waiting for admission.",
			func() float64 { return float64(e.arb.queued()) })
		if e.rcache != nil {
			reg.GaugeFunc("flashr_result_cache_bytes", "Bytes held by the sub-DAG result cache.",
				func() float64 { _, b := e.rcache.stats(); return float64(b) })
			reg.GaugeFunc("flashr_result_cache_entries", "Entries in the sub-DAG result cache.",
				func() float64 { n, _ := e.rcache.stats(); return float64(n) })
		}
		e.cfg.Topo.RegisterMetrics(reg)
		if e.cfg.FS != nil {
			e.cfg.FS.RegisterMetrics(reg)
		}
		e.metrics = reg
	})
	return e.metrics
}
