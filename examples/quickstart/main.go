// Quickstart: create matrices, run lazily-fused R-base-style operations,
// and inspect when computation actually happens.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	flashr "repro"
)

func main() {
	// An in-memory session (FlashR-IM). See examples/outofcore for the
	// SSD-backed variant.
	s := flashr.NewMemSession()

	// rnorm.matrix: a 1M × 8 standard-normal matrix, generated in parallel.
	x, err := s.Rnorm(1_000_000, 8, 0, 1, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Everything below is LAZY: no data moves yet. The expression
	// standardizes columns and measures how many standardized values
	// exceed 2 — a DAG of sapply/mapply/aggregation GenOps.
	mean := flashr.ColMeans(x)
	meanV, err := mean.AsVector() // forces a first pass (column sums)
	if err != nil {
		log.Fatal(err)
	}
	centered := flashr.Sweep(x, 2, mean, "-")
	sd := flashr.Sqrt(flashr.ColMeans(flashr.Square(centered)))
	sdV, err := sd.AsVector()
	if err != nil {
		log.Fatal(err)
	}
	standardized := flashr.Sweep(centered, 2, sd, "/")
	outliers := flashr.Sum(flashr.Gt(flashr.Abs(standardized), 2.0))

	// Sum returns a lazy 1×1 sink; Float() triggers ONE fused pass that
	// evaluates the sweep, abs, compare and sum together.
	count, err := outliers.Float()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("matrix: %d x %d\n", x.NRow(), x.NCol())
	fmt.Printf("column means (first 4): %.4f %.4f %.4f %.4f\n", meanV[0], meanV[1], meanV[2], meanV[3])
	fmt.Printf("column sds   (first 4): %.4f %.4f %.4f %.4f\n", sdV[0], sdV[1], sdV[2], sdV[3])
	fmt.Printf("|z| > 2 count: %.0f (%.2f%% of elements)\n", count, 100*count/float64(x.Length()))

	// A Gramian (t(X) %*% X) is a sink GenOp: the p×p result lives in
	// memory while X streams through the engine once.
	gram, err := flashr.CrossProd(x).AsDense()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gramian[0,0..3]: %.1f %.1f %.1f %.1f\n",
		gram.At(0, 0), gram.At(0, 1), gram.At(0, 2), gram.At(0, 3))
	fmt.Printf("engine ran %d fused passes over the data\n", s.TotalMaterializeStats().Passes)
}
