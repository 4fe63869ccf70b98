package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	flashr "repro"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/safs"
	"repro/internal/workload"
	"repro/ml"
)

// Probes call a layer's public functions directly, at the shape the
// workloads use, so its rate can be set beside the host's ceiling. They run
// after the traced rounds, single-threaded where the layer is.

// probeThrottleMiB is the token-bucket rate of the throttled scratch array.
const probeThrottleMiB = 200

// blasProbe measures Gemm, GemmTA and Syrk at the chunk shapes im_blas feeds
// them: 32 rows (64 KiB Pcache / 256 columns), k = 256, n = 64 or 32. Each
// timing covers at least minTime.
func blasProbe(minTime time.Duration) (gemm, gemmTA, syrk float64) {
	const m, k = 32, blasCols
	a := make([]float64, m*k)
	for i := range a {
		a[i] = float64(i%7) - 3
	}
	b := make([]float64, k*gemmTallCols)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	c := make([]float64, k*k)
	rate := func(flops float64, f func()) float64 {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < minTime { // calibrate the batch
			f()
			calls++
		}
		return bestRate(3, flops*float64(calls), func() {
			for i := 0; i < calls; i++ {
				f()
			}
		})
	}
	gemm = rate(2*m*k*gemmTallCols, func() { blas.Gemm(m, gemmTallCols, k, a, k, b, gemmTallCols, c, gemmTallCols) })
	gemmTA = rate(2*m*k*gemmTACols, func() { blas.GemmTA(m, gemmTACols, k, a, k, b, gemmTACols, c, gemmTACols) })
	syrk = rate(m*k*(k+1), func() { blas.Syrk(m, k, a, k, c, k) })
	return gemm, gemmTA, syrk
}

// safsProbe writes and reads partition-sized requests through File.WriteAt
// and File.ReadAt on a scratch array beside the workload's, verify on, and
// reads once more through a 200 MiB/s token bucket.
func safsProbe(dir string, partBytes, parts int) (readGBps, writeGBps, bucketFrac float64, err error) {
	defer os.RemoveAll(dir)
	fs, err := safs.OpenTempDir(filepath.Join(dir, "open"), arrayDrive, 0, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer fs.Close()
	buf := make([]byte, partBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	sweep := func(f *safs.File, parts int, write bool) (float64, error) {
		t0 := time.Now()
		for i := 0; i < parts; i++ {
			var err error
			if write {
				err = f.WriteAt(buf, int64(i)*int64(partBytes))
			} else {
				err = f.ReadAt(buf, int64(i)*int64(partBytes))
			}
			if err != nil {
				return 0, err
			}
		}
		return float64(parts) * float64(partBytes) / float64(time.Since(t0).Nanoseconds()), nil
	}
	f, err := fs.Create("probe", int64(parts)*int64(partBytes))
	if err != nil {
		return 0, 0, 0, err
	}
	// The first sweep allocates the file's blocks and first-touches its page
	// cache, which on a guest ran 30× slower than the second; the timed
	// sweep overwrites, so it measures SAFS (stripe split, CRC, copy,
	// syscall) and not the filesystem's allocator.
	if _, err = sweep(f, parts, true); err != nil {
		return 0, 0, 0, err
	}
	if writeGBps, err = sweep(f, parts, true); err != nil {
		return 0, 0, 0, err
	}
	if readGBps, err = sweep(f, parts, false); err != nil {
		return 0, 0, 0, err
	}

	slow, err := safs.OpenTempDir(filepath.Join(dir, "throttled"), arrayDrive, probeThrottleMiB, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer slow.Close()
	slowParts := (parts + 1) / 2 // half the volume: at 200 MiB/s the full sweep would take 0.4 s
	sf, err := slow.Create("probe", int64(slowParts)*int64(partBytes))
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err = sweep(sf, slowParts, true); err != nil {
		return 0, 0, 0, err
	}
	got, err := sweep(sf, slowParts, false)
	if err != nil {
		return 0, 0, 0, err
	}
	return readGBps, writeGBps, got * 1e9 / (probeThrottleMiB << 20), nil
}

// storeProbe moves every partition of a scratch store through a matrix.Store's WritePart
// and ReadPart; the gap to the raw safs rates is the layout transform.
func storeProbe(st matrix.Store) (readGBps, writeGBps float64, err error) {
	defer st.Free() // scratch store: its files go with the work directory whatever Free says
	buf := make([]float64, st.PartRows()*st.NCol())
	for i := range buf {
		buf[i] = float64(i % 97)
	}
	sweep := func(f func(int, []float64) error) (float64, error) {
		t0 := time.Now()
		for i := 0; i < st.NumParts(); i++ {
			if err := f(i, buf); err != nil {
				return 0, err
			}
		}
		return float64(st.NumParts()) * float64(len(buf)*8) / float64(time.Since(t0).Nanoseconds()), nil
	}
	if _, err = sweep(st.WritePart); err != nil { // allocates; see safsProbe
		return 0, 0, err
	}
	if writeGBps, err = sweep(st.WritePart); err != nil {
		return 0, 0, err
	}
	readGBps, err = sweep(st.ReadPart)
	return readGBps, writeGBps, err
}

// imLogisticPassTime runs the em_scan logistic call on an in-memory session
// over the same generated data and returns the mean wall time of one pass —
// the denominator of the paper's EM/IM ratio.
func imLogisticPassTime(n, seed int64) (float64, error) {
	s, err := flashr.NewSession(flashr.Options{Workers: benchWorkers()})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	x, y, err := workload.Criteo(s, n, seed)
	if err != nil {
		return 0, err
	}
	d := &dataset{x: x, y: y}
	defer d.free()
	var perPass float64
	// Twice: the first call touches the data, the second is measured. The
	// L2 differs so the second is not a result-cache hit.
	for i := 0; i < 2; i++ {
		before := s.TotalMaterializeStats()
		if _, err := ml.LogisticRegressionLBFGS(s, x, y, ml.LogisticOptions{MaxIter: 5, Tol: 1e-12, L2: 1e-3 * float64(2+i)}); err != nil {
			return 0, err
		}
		ms := s.TotalMaterializeStats().Sub(before)
		if ms.Passes == 0 {
			return 0, fmt.Errorf("executed no pass")
		}
		perPass = ms.Wall.Seconds() / float64(ms.Passes)
	}
	return perPass, nil
}
