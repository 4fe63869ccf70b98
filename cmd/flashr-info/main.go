// Command flashr-info inspects a simulated SSD array: the files stored on
// it, their striping across drives, and summary statistics of named
// matrices stored with SaveNamedCtx / flashr-gen.
//
// Usage:
//
//	flashr-info -ssd-root /data/flashr
//	flashr-info -ssd-root /data/flashr -matrix criteo-x
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	flashr "repro"
	"repro/internal/safs"
)

func main() {
	var (
		ssdRoot = flag.String("ssd-root", "", "simulated SSD array root (required)")
		drives  = flag.Int("drives", 4, "simulated SSD count")
		name    = flag.String("matrix", "", "named matrix to summarize")
		verify  = flag.Bool("verify", false, "scrub named matrices against their sidecar checksums (all, or just -matrix); exits 1 on corruption")
		metrics = flag.Bool("metrics", false, "dump expfmt metrics (engine, SSD array, NUMA) before exiting")
		explain = flag.Bool("explain", false, "with -matrix: render a sample expression DAG before and after the algebraic rewrite pass, with rule counters")
	)
	flag.Parse()
	if *ssdRoot == "" {
		fatal(errors.New("-ssd-root is required"))
	}
	dirs := safs.DriveDirs(*ssdRoot, *drives)
	s, err := flashr.NewSession(flashr.Options{EM: true, SSDDirs: dirs})
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	fs := s.FS()
	dumpMetrics := func() {
		if *metrics {
			fmt.Println()
			if _, err := s.Metrics().WriteTo(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}

	if *verify {
		names := s.ListNamed()
		if *name != "" {
			names = []string{*name}
		}
		if len(names) == 0 {
			fmt.Println("no named matrices to verify")
			dumpMetrics()
			return
		}
		perDrive := make([]int, fs.NumDrives())
		var verified, skipped, corrupt int64
		for _, n := range names {
			reps, err := s.VerifyNamedCtx(context.Background(), n)
			if err != nil {
				fatal(err)
			}
			for _, rep := range reps {
				verified += rep.Verified
				skipped += rep.Skipped
				for _, c := range rep.Corrupt {
					corrupt++
					if c.Drive >= 0 && c.Drive < len(perDrive) {
						perDrive[c.Drive]++
					}
					fmt.Printf("CORRUPT %s: file %q stripe %d on drive %d (want crc32c %08x, got %08x)\n",
						n, rep.File, c.Stripe, c.Drive, c.Want, c.Got)
				}
			}
		}
		fmt.Printf("verify: %d matrices, %d stripes verified, %d skipped (no recorded checksum), %d corrupt\n",
			len(names), verified, skipped, corrupt)
		if corrupt > 0 {
			fmt.Println("per-drive corruption:")
			for d, c := range perDrive {
				if c > 0 {
					fmt.Printf("  drive %02d: %d corrupt stripes\n", d, c)
				}
			}
			os.Exit(1)
		}
		dumpMetrics()
		return
	}

	if *name == "" {
		fmt.Printf("SSD array at %s: %d drives, stripe %d KiB\n", *ssdRoot, fs.NumDrives(), fs.StripeBytes()/1024)
		for i, d := range dirs {
			matches, _ := filepath.Glob(filepath.Join(d, "*.seg"))
			var total int64
			for _, m := range matches {
				if st, err := os.Stat(m); err == nil {
					total += st.Size()
				}
			}
			fmt.Printf("  drive %02d: %4d segments, %10.1f MiB\n", i, len(matches), float64(total)/(1<<20))
		}
		if names := s.ListNamed(); len(names) > 0 {
			fmt.Println("named matrices:")
			for _, n := range names {
				if m, err := s.OpenNamed(n); err == nil {
					r, c := m.Dim()
					fmt.Printf("  %-20s %10d x %-6d %10.1f MiB\n", n, r, c, float64(r*c*8)/(1<<20))
				}
			}
		}
		dumpMetrics()
		return
	}

	// Summary statistics force reads through the lazy API, parts of which
	// panic on materialization errors (MustFloat semantics); a corrupt or
	// unreadable matrix must exit with the I/O error, not a stack trace.
	defer func() {
		if r := recover(); r != nil {
			fatal(fmt.Errorf("%v", r))
		}
	}()
	x, err := s.OpenNamed(*name)
	if err != nil {
		fatal(err)
	}
	r, c := x.Dim()
	fmt.Printf("%s: %d x %d\n", *name, r, c)
	// Summary statistics stream through the engine in one fused pass, so
	// even huge matrices summarize in constant memory.
	mnS, mxS := flashr.Min(x), flashr.Max(x)
	meanS := flashr.Mean(x)
	mn, err := mnS.Float()
	if err != nil {
		fatal(err)
	}
	mx, err := mxS.Float()
	if err != nil {
		fatal(err)
	}
	mean, err := meanS.Float()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  min=%.6g max=%.6g mean=%.6g\n", mn, mx, mean)
	cs, err := flashr.ColMeans(x).AsVector()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  column means: ")
	for j, v := range cs {
		if j == 8 {
			fmt.Printf("…")
			break
		}
		fmt.Printf("%.4g ", v)
	}
	fmt.Println()
	// The summaries above run several materialization passes over the same
	// leaf; show how much of that the hash-consed result cache absorbed.
	ms := s.TotalMaterializeStats()
	entries, bytes := s.Engine().ResultCacheStats()
	fmt.Printf("  engine: nodes=%d cse-unified=%d cache hits=%d misses=%d saved=%.1fMiB evictions=%d (resident %d entries, %.1fMiB)\n",
		ms.NodesExecuted, ms.CSEUnifications, ms.CacheHits, ms.CacheMisses,
		float64(ms.CacheHitBytes)/(1<<20), ms.CacheEvictions,
		entries, float64(bytes)/(1<<20))
	fmt.Printf("  rewrites: total=%d view=%d crossprod=%d aggfold=%d dce=%d dead-nodes=%d\n",
		ms.Rewrites, ms.RewriteViews, ms.RewriteCrossProds, ms.RewriteAggFolds,
		ms.RewriteDCE, ms.RewriteDeadNodes)
	if *explain {
		// A sample expression with foldable layers: the optimizer rewrites
		// each sink's input graph in place during materialization, so
		// explaining the same expression before and after the pass shows
		// exactly what the rewrite rules did to it. A structurally identical
		// twin is forced instead of expr itself — both sinks sit in the same
		// deferred batch and are both rewritten, but only the forced one
		// resolves away its graph.
		build := func() *flashr.FM {
			return flashr.Sum(flashr.Mul(flashr.Add(flashr.GetCols(x, seq(int(c))), 1.0), 2.0))
		}
		expr := build()
		fmt.Printf("\nexplain: sum(2*(x[, 1:%d] + 1)) before rewriting:\n%s", c, flashr.Explain(expr))
		before := s.TotalMaterializeStats()
		if _, err := build().Float(); err != nil {
			fatal(err)
		}
		d := s.TotalMaterializeStats().Sub(before)
		fmt.Printf("after rewriting (%d rule applications: view=%d fold=%d):\n%s",
			d.Rewrites, d.RewriteViews, d.RewriteAggFolds, flashr.Explain(expr))
	}
	dumpMetrics()
}

// seq returns the identity column selection [0, n).
func seq(n int) []int {
	ix := make([]int, n)
	for i := range ix {
		ix[i] = i
	}
	return ix
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashr-info: %v\n", err)
	os.Exit(1)
}
