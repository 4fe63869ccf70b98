package benchmark

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	flashr "repro"
	"repro/internal/dense"
	"repro/ml"
)

// Shard compares one local engine against a sharded session running the
// identical k-means and logistic-regression workloads, and self-gates on
// equivalence: integer-valued channels (cluster sizes, per-iteration moves,
// iteration counts) must be bit-identical, and float aggregation results
// (centers, objective, weights, logloss) must agree within a pinned
// tolerance — the shard combine regroups the floating-point fold, nothing
// more. A gate failure returns an error, so CI fails the build rather than
// reporting a wrong speedup.
//
// Workers come from Config.ShardAddrs (already-running flashr-shardworker
// TCP processes) or, when empty, Config.ShardWorkers in-process engines.
func Shard(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	shards := cfg.ShardWorkers
	if len(cfg.ShardAddrs) > 0 {
		shards = len(cfg.ShardAddrs)
	}
	if shards <= 0 {
		shards = 2
	}
	n := cfg.N / 2
	if n < 4096 {
		n = 4096
	}
	const p = 8
	const k = 4

	initCenters := dense.New(k, p)
	crng := rand.New(rand.NewSource(cfg.Seed*31 + 7))
	for i := range initCenters.Data {
		initCenters.Data[i] = crng.NormFloat64()
	}

	type result struct {
		km    *ml.KMeansResult
		lg    *ml.LogisticModel
		kmSec float64
		lgSec float64
		stats flashr.MaterializeStats
		wire  string
	}
	run := func(sharded bool) (result, error) {
		var res result
		opts := cfg.Session
		opts.PartRows = cfg.ShardPartRows
		opts.Owner = fmt.Sprintf("bench-shard-%v", sharded)
		if sharded {
			sc := flashr.ShardConfig{}
			if len(cfg.ShardAddrs) > 0 {
				sc.Addrs = cfg.ShardAddrs
				// Real worker processes can be killed and restarted under the
				// bench (the chaos smoke does exactly that): spread a generous
				// retry budget over the restart window instead of exhausting
				// it in milliseconds.
				sc.Retries = 12
				sc.RetryBackoff = 50 * time.Millisecond
				sc.RetryBackoffMax = 2 * time.Second
			} else {
				sc.Shards = shards
			}
			opts.Sharding = &sc
		}
		s, err := flashr.NewSession(opts)
		if err != nil {
			return res, err
		}
		defer s.Close()
		if cfg.Trace != nil {
			s.Engine().StartTrace()
			defer func() { cfg.Trace.add(s.Engine().StopTrace()) }()
		}
		x, err := s.GenerateSeeded(n, p, cfg.Seed, func(rng *rand.Rand, row []float64) {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		})
		if err != nil {
			return res, err
		}
		defer x.Free()
		y, err := s.GenerateSeeded(n, 1, cfg.Seed+1, func(rng *rand.Rand, row []float64) {
			if rng.NormFloat64() > 0 {
				row[0] = 1
			}
		})
		if err != nil {
			return res, err
		}
		defer y.Free()
		before := s.TotalMaterializeStats()
		if sharded {
			// Marker for external chaos drivers (scripts/shard-smoke.sh): the
			// leaves are pushed, the iterative passes start now — killing a
			// worker after this line exercises mid-iteration recovery.
			fmt.Fprintln(os.Stderr, "flashr-bench: distributed workload starting")
			// The workloads run in milliseconds, far too fast for an external
			// kill -9 to land mid-run; FLASHR_SHARD_CHAOS_PAUSE opens a
			// deterministic window between the leaf push and the first pass.
			if d, err := time.ParseDuration(os.Getenv("FLASHR_SHARD_CHAOS_PAUSE")); err == nil && d > 0 {
				time.Sleep(d)
			}
		}
		res.kmSec, err = timeIt(func() error {
			km, kerr := ml.KMeans(s, x, k, ml.KMeansOptions{MaxIter: cfg.Iters, InitCenters: initCenters})
			res.km = km
			return kerr
		})
		if err != nil {
			return res, fmt.Errorf("kmeans: %w", err)
		}
		res.lgSec, err = timeIt(func() error {
			lg, lerr := ml.LogisticRegressionGD(s, x, y, ml.LogisticOptions{MaxIter: cfg.Iters})
			res.lg = lg
			return lerr
		})
		if err != nil {
			return res, fmt.Errorf("logistic: %w", err)
		}
		res.stats = s.TotalMaterializeStats().Sub(before)
		if sharded {
			if res.stats.ShardPasses == 0 || res.stats.ShardAggRounds == 0 {
				return res, fmt.Errorf("sharded run reported passes=%d rounds=%d — the remote path did not execute",
					res.stats.ShardPasses, res.stats.ShardAggRounds)
			}
			sent, recv, retries := s.Coordinator().Totals()
			res.wire = fmt.Sprintf("wire-sent=%.1fMB wire-recv=%.1fMB retries=%d rounds=%d recoveries=%d ",
				float64(sent)/(1<<20), float64(recv)/(1<<20), retries, s.Coordinator().AggRounds(),
				s.Coordinator().Recoveries())
		} else if res.stats.ShardPasses != 0 {
			return res, fmt.Errorf("local run reported %d shard passes", res.stats.ShardPasses)
		}
		return res, nil
	}

	local, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("shard local: %w", err)
	}
	dist, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("shard %d-way: %w", shards, err)
	}

	exactf := func(what string, a, b []float64) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Errorf("%s[%d]: local %v, shard %v", what, i, a[i], b[i])
			}
		}
		return nil
	}
	closef := func(what string, a, b []float64) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
		}
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > 1e-9*math.Abs(a[i])+1e-12 {
				return fmt.Errorf("%s[%d] outside tolerance: local %v, shard %v", what, i, a[i], b[i])
			}
		}
		return nil
	}
	moves := func(m []int64) []float64 {
		out := make([]float64, len(m))
		for i, v := range m {
			out[i] = float64(v)
		}
		return out
	}
	gates := []error{
		// Integer-valued channels: per-row assignment is not a cross-shard
		// fold, so sizes and move counts must survive sharding bitwise.
		exactf("kmeans sizes", local.km.Sizes, dist.km.Sizes),
		exactf("kmeans moves", moves(local.km.Moves), moves(dist.km.Moves)),
		// Float folds regroup across shards: tolerance-pinned.
		closef("kmeans centers", local.km.Centers.Data, dist.km.Centers.Data),
		closef("kmeans objective", []float64{local.km.Objective}, []float64{dist.km.Objective}),
		closef("logistic weights", local.lg.W, dist.lg.W),
		closef("logistic logloss", []float64{local.lg.LogLoss}, []float64{dist.lg.LogLoss}),
	}
	if local.km.Iters != dist.km.Iters {
		gates = append(gates, fmt.Errorf("kmeans iterations: local %d, shard %d", local.km.Iters, dist.km.Iters))
	}
	if local.lg.Iters != dist.lg.Iters {
		gates = append(gates, fmt.Errorf("logistic iterations: local %d, shard %d", local.lg.Iters, dist.lg.Iters))
	}
	for _, g := range gates {
		if g != nil {
			return nil, fmt.Errorf("shard equivalence gate: %w", g)
		}
	}

	params := fmt.Sprintf("n=%d p=%d k=%d iters=%d shards=%d", n, p, k, cfg.Iters, shards)
	mode := fmt.Sprintf("shard-%d", shards)
	if len(cfg.ShardAddrs) > 0 {
		mode += "-tcp"
	}
	return []Row{
		{Experiment: "shard", Algorithm: "kmeans", System: "local-1", Params: params,
			Seconds: local.kmSec, Normalized: 1, Extra: ioExtra(local.stats)},
		{Experiment: "shard", Algorithm: "kmeans", System: mode, Params: params,
			Seconds: dist.kmSec, Normalized: dist.kmSec / local.kmSec,
			Extra: dist.wire + ioExtra(dist.stats)},
		{Experiment: "shard", Algorithm: "logistic", System: "local-1", Params: params,
			Seconds: local.lgSec, Normalized: 1, Extra: ioExtra(local.stats)},
		{Experiment: "shard", Algorithm: "logistic", System: mode, Params: params,
			Seconds: dist.lgSec, Normalized: dist.lgSec / local.lgSec,
			Extra: dist.wire + ioExtra(dist.stats)},
	}, nil
}
