// Command flashr-gen synthesizes the benchmark datasets of Table 5 (the
// Criteo-like click logs and the PageGraph-like spectral embedding) and
// stores them on a simulated SSD array or as CSV, streaming through
// partition-sized buffers so the matrix never has to fit in memory.
//
// Usage:
//
//	flashr-gen -dataset criteo -n 1000000 -ssd-root /data/flashr
//	flashr-gen -dataset pagegraph -n 500000 -csv /tmp/pg.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	flashr "repro"
	"repro/internal/safs"
	"repro/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "criteo", "dataset to generate: criteo | pagegraph")
		n       = flag.Int64("n", 1_000_000, "rows")
		seed    = flag.Int64("seed", 42, "generator seed")
		ssdRoot = flag.String("ssd-root", "", "store on a simulated SSD array under this directory")
		drives  = flag.Int("drives", 4, "simulated SSD count")
		csvPath = flag.String("csv", "", "also write the feature matrix as CSV to this path")
		metrics = flag.Bool("metrics", false, "dump expfmt metrics for the generation run before exiting")
	)
	flag.Parse()

	opts := flashr.Options{}
	if *ssdRoot != "" {
		opts.EM = true
		opts.SSDDirs = safs.DriveDirs(*ssdRoot, *drives)
	}
	s, err := flashr.NewSession(opts)
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	var x, y *flashr.FM
	switch *dataset {
	case "criteo":
		x, y, err = workload.Criteo(s, *n, *seed)
	case "pagegraph":
		x, err = workload.PageGraph(s, *n, *seed)
	default:
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generated %s: %d x %d (%.1f MiB)\n",
		*dataset, x.NRow(), x.NCol(), float64(x.NRow()*x.NCol()*8)/(1<<20))
	if *ssdRoot != "" {
		if err := s.SaveNamedCtx(context.Background(), x, *dataset+"-x"); err != nil {
			fatal(err)
		}
		if y != nil {
			if err := s.SaveNamedCtx(context.Background(), y, *dataset+"-y"); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("saved as named matrices: %v (reopen with flashr-info or Session.OpenNamed)\n", s.ListNamed())
	}
	if y != nil {
		rate, err := flashr.Mean(y).Float()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("labels: %d x 1, positive rate %.3f\n", y.NRow(), rate)
	}
	if *ssdRoot != "" {
		fmt.Printf("stored on SSD array under %s (%d drives):\n", *ssdRoot, *drives)
		for _, name := range s.FS().List() {
			f, err := s.FS().OpenFile(name)
			if err == nil {
				fmt.Printf("  %-16s %10.1f MiB\n", name, float64(f.Size())/(1<<20))
			}
		}
	}
	if *csvPath != "" {
		if err := flashr.SaveCSV(x, *csvPath, ","); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote CSV to %s\n", *csvPath)
	}
	if *metrics {
		fmt.Println()
		if _, err := s.Metrics().WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashr-gen: %v\n", err)
	os.Exit(1)
}
