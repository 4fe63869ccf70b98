// Out-of-core execution: the same algorithms running against a simulated
// SSD array (FlashR-EM), with a bandwidth throttle standing in for real
// device limits. Demonstrates the paper's central claim at laptop scale —
// external-memory execution with a memory footprint that is a small
// fraction of the data, at speed comparable to in-memory execution for
// compute-heavy algorithms.
//
//	go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	flashr "repro"
	"repro/internal/safs"
	"repro/internal/workload"
	"repro/ml"
)

func main() {
	root, err := os.MkdirTemp("", "flashr-ssd-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// Four simulated SSDs, 1.2 GiB/s aggregate read — preserving the
	// paper's ~1:8 SSD:DRAM bandwidth ratio at this host's scale.
	drives := safs.DriveDirs(root, 4)
	em, err := flashr.NewSession(flashr.Options{
		EM: true, SSDDirs: drives, ReadMBps: 1200, WriteMBps: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer em.Close()

	const n = 1_000_000
	fmt.Printf("generating %d x %d click log directly onto the SSD array…\n", n, workload.CriteoCols)
	x, y, err := workload.Criteo(em, n, 11)
	if err != nil {
		log.Fatal(err)
	}
	dataMB := float64(n*workload.CriteoCols*8) / (1 << 20)
	fmt.Printf("dataset: %.0f MiB on SSDs\n", dataMB)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	t0 := time.Now()
	corr, err := ml.Correlation(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("correlation (one fused pass over SSDs): %v\n", time.Since(t0))
	fmt.Printf("  corr[0,1]=%.4f corr[0,13]=%.4f\n", corr.At(0, 1), corr.At(0, 13))

	t0 = time.Now()
	nb, err := ml.NaiveBayes(em, x, y, 2)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := ml.Accuracy(nb.Predict(em, x), y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive bayes: %v, accuracy %.4f\n", time.Since(t0), acc)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heapMB := float64(after.HeapAlloc) / (1 << 20)
	fmt.Printf("heap in use: %.0f MiB (%.1f%% of the dataset) — the engine keeps only\n",
		heapMB, 100*heapMB/dataMB)
	fmt.Println("sink results and per-worker partition buffers in memory")

	st := em.FS().Stats()
	fmt.Printf("SSD traffic: %.0f MiB read, %.0f MiB written\n",
		float64(st.BytesRead)/(1<<20), float64(st.BytesWritten)/(1<<20))
}
