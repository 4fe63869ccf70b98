// Command flashr-repl is an interactive R-flavored shell over the FlashR
// engine — the reproduction's stand-in for the R front end that makes
// FlashR "an interactive R programming framework" (§1 of the paper).
//
//	$ go run ./cmd/flashr-repl
//	flashr> x <- rnorm.matrix(1000000, 8)
//	flashr> y <- sweep(x, 2, colMeans(x), "-")
//	flashr> sum(y * y) / (length(y) - 1)
//	[1] 1.0001
//
// Expressions are lazy; DAGs materialize when a value has to be printed.
// Run with -ssd-root to execute out-of-core (FlashR-EM). Commands: ls
// (variables), quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	flashr "repro"
	"repro/internal/repl"
	"repro/internal/safs"
)

func main() {
	var (
		ssdRoot   = flag.String("ssd-root", "", "run out-of-core over a simulated SSD array at this path")
		drives    = flag.Int("drives", 4, "simulated SSD count")
		readMBps  = flag.Float64("read-mbps", 0, "SSD read throttle (0 = unthrottled)")
		writeMBps = flag.Float64("write-mbps", 0, "SSD write throttle")
	)
	flag.Parse()

	opts := flashr.Options{ReadMBps: *readMBps, WriteMBps: *writeMBps}
	if *ssdRoot != "" {
		opts.EM = true
		opts.SSDDirs = safs.DriveDirs(*ssdRoot, *drives)
	}
	s, err := flashr.NewSession(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashr-repl: %v\n", err)
		os.Exit(1)
	}
	defer s.Close()
	env := repl.NewEnv(s)

	mode := "in-memory (FlashR-IM)"
	if opts.EM {
		mode = fmt.Sprintf("out-of-core on %d simulated SSDs (FlashR-EM)", *drives)
	}
	fmt.Printf("FlashR-Go %s — %s\n", flashr.Version, mode)
	fmt.Println(`Type R-style expressions; "ls" lists variables, "quit" exits.`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("flashr> ")
		if !sc.Scan() {
			fmt.Println()
			if err := sc.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "flashr-repl: stdin: %v\n", err)
				os.Exit(1)
			}
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
			continue
		case "quit", "q", "exit":
			return
		case "ls":
			for _, v := range env.Vars() {
				fmt.Println(v)
			}
			continue
		}
		v, err := env.Eval(line)
		if err != nil {
			fmt.Printf("Error: %v\n", err)
			continue
		}
		out, err := env.Format(v)
		if err != nil {
			fmt.Printf("Error: %v\n", err)
			continue
		}
		if out != "" {
			fmt.Println(out)
		}
	}
}
