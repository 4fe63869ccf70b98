package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/eager"
	"repro/internal/matrix"
	"repro/internal/shard"
)

// TestReduceRoundConformance pins the cost model's synchronization
// accounting to the real distributed engine. The model charges one
// RoundTripLatency per aggregation boundary; that constant only means
// something if a boundary in the simulator corresponds to exactly one
// coordinator round on the real sharded path. A workload of L column-sum
// forces must therefore count L ReduceRounds in the eager simulator and L
// aggregation rounds on a live 2-shard coordinator — and, with
// integer-valued data (exact under any regrouping of the parallel fold),
// both engines must also agree on the sums bitwise.
func TestReduceRoundConformance(t *testing.T) {
	const (
		nrow = 300
		ncol = 3
		L    = 5
	)
	val := func(r, c int) float64 { return float64((r*7+c*3)%11 - 5) }
	x := dense.New(nrow, ncol)
	for r := 0; r < nrow; r++ {
		for c := 0; c < ncol; c++ {
			x.Data[r*ncol+c] = val(r, c)
		}
	}

	// Cost-model path: L eager reduces under the simulator.
	eag := eager.New(eager.StyleMLlib, 2)
	var eagerSums [][]float64
	res := Run(DefaultConfig(), eag, func() {
		for i := 0; i < L; i++ {
			eagerSums = append(eagerSums, eag.ColSums(x))
		}
	})
	if res.ReduceRounds != L {
		t.Fatalf("cost model counted %d reduce rounds, want %d", res.ReduceRounds, L)
	}

	// Real distributed path: the same L boundaries through a 2-shard
	// coordinator. The sub-DAG result cache is disabled so every force is
	// a real aggregation round, matching the cache-less eager engine.
	ecfg := core.Config{Workers: 2, PartRows: 64, ResultCacheBytes: -1}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewCoordinator(shard.Config{Shards: 2,
		Retries: 8, RetryBackoff: time.Millisecond}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	eng.SetRemoteExecutor(coord)

	leaf, err := eng.Generate(nrow, ncol, matrix.F64, func(startRow int64, rows int, buf []float64) {
		for r := 0; r < rows; r++ {
			for c := 0; c < ncol; c++ {
				buf[r*ncol+c] = val(int(startRow)+r, c)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := core.LookupAgg("+")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rounds0 := eng.TotalMaterializeStats().ShardAggRounds
	for i := 0; i < L; i++ {
		s := core.AggCol(leaf, plus)
		if err := eng.MaterializeCtx(ctx, nil, []*core.Sink{s}); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		got := s.Result()
		if got == nil || got.C != ncol {
			t.Fatalf("round %d: bad colsum shape", i)
		}
		for c := 0; c < ncol; c++ {
			if got.Data[c] != eagerSums[i][c] {
				t.Fatalf("round %d col %d: shard %v, eager %v", i, c, got.Data[c], eagerSums[i][c])
			}
		}
	}
	if n := eng.TotalMaterializeStats().ShardAggRounds - rounds0; n != L {
		t.Fatalf("coordinator measured %d aggregation rounds, cost model predicted %d",
			n, res.ReduceRounds)
	}
}
