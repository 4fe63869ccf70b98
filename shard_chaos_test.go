// Chaos differential sweep for shard fault recovery: the paper's k-means and
// logistic-regression workloads run under seeded worker kill/restart
// schedules, and every faulted run is held to the same answer as the
// unfaulted one. The gates are deliberately asymmetric:
//
//   - faulted-sharded vs unfaulted-sharded: BIT-identical on every channel.
//     Recovery replays lineage with the recorded carries over the same row
//     partitioning, so a crash must not perturb a single bit.
//   - sharded vs local: integer channels (sizes, moves, iteration counts)
//     bit-identical, float folds tolerance-pinned — the shard combine
//     regroups the reduction, nothing more.
//
// The coordinator is never restarted here (that path is covered by
// TestShardCheckpointResume); every schedule must record at least one
// recovery and leak no worker handles.
//
// This file is an external test package: it drives repro/ml, which imports
// the root package.
package flashr_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	flashr "repro"
	"repro/internal/dense"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/ml"
)

const (
	chaosN     = 1100
	chaosP     = 5
	chaosK     = 3
	chaosIters = 3
)

// chaosOutcome flattens both models into comparable channels.
type chaosOutcome struct {
	exact map[string][]float64 // bit-identical across every configuration
	close map[string][]float64 // tolerance-pinned across local vs sharded
}

func chaosInitCenters() *dense.Dense {
	c := dense.New(chaosK, chaosP)
	rng := rand.New(rand.NewSource(41))
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	return c
}

// runChaosML runs the two workloads in one session and returns the flattened
// outcome. The caller owns opts; the session is closed before returning so
// coordinator teardown is part of what the sweep exercises. afterKMeans, if
// set, runs between the two workloads; check, if set, runs after both.
func runChaosML(t *testing.T, opts flashr.Options, afterKMeans func(), check func(s *flashr.Session)) chaosOutcome {
	t.Helper()
	s, err := flashr.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, err := s.GenerateSeeded(chaosN, chaosP, 17, func(rng *rand.Rand, row []float64) {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := s.GenerateSeeded(chaosN, 1, 18, func(rng *rand.Rand, row []float64) {
		if rng.NormFloat64() > 0 {
			row[0] = 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	km, err := ml.KMeans(s, x, chaosK, ml.KMeansOptions{MaxIter: chaosIters, InitCenters: chaosInitCenters()})
	if err != nil {
		t.Fatalf("kmeans: %v", err)
	}
	if afterKMeans != nil {
		afterKMeans()
	}
	lg, err := ml.LogisticRegressionGD(s, x, y, ml.LogisticOptions{MaxIter: chaosIters})
	if err != nil {
		t.Fatalf("logistic: %v", err)
	}
	if check != nil {
		check(s)
	}
	moves := make([]float64, len(km.Moves))
	for i, v := range km.Moves {
		moves[i] = float64(v)
	}
	return chaosOutcome{
		exact: map[string][]float64{
			"kmeans sizes": km.Sizes,
			"kmeans moves": moves,
			"iterations":   {float64(km.Iters), float64(lg.Iters)},
		},
		close: map[string][]float64{
			"kmeans centers":   km.Centers.Data,
			"kmeans objective": {km.Objective},
			"logistic weights": lg.W,
			"logistic logloss": {lg.LogLoss},
		},
	}
}

func chaosShardOptions() flashr.Options {
	return flashr.Options{Workers: 4, PartRows: 256}
}

// compareChannels asserts a == b, bitwise on every channel when bitwise is
// set, otherwise bitwise on exact channels and tolerance-pinned on close
// ones.
func compareChannels(t *testing.T, label string, a, b chaosOutcome, bitwise bool) {
	t.Helper()
	bit := func(what string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", label, what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v (bitwise)", label, what, i, y[i], x[i])
			}
		}
	}
	tol := func(what string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", label, what, len(x), len(y))
		}
		for i := range x {
			if d := math.Abs(x[i] - y[i]); d > 1e-9*math.Abs(x[i])+1e-12 {
				t.Fatalf("%s: %s[%d] = %v, want %v±tol", label, what, i, y[i], x[i])
			}
		}
	}
	for what, x := range a.exact {
		bit(what, x, b.exact[what])
	}
	for what, x := range a.close {
		if bitwise {
			bit(what, x, b.close[what])
		} else {
			tol(what, x, b.close[what])
		}
	}
}

// TestShardChaosDifferential is the acceptance sweep: kill/restart each of
// two workers at each exec boundary of the iteration, and hold every faulted
// run to the unfaulted answers.
func TestShardChaosDifferential(t *testing.T) {
	local := runChaosML(t, chaosShardOptions(), nil, nil)

	shardOpts := func(wrap func(wi int, tr shard.Transport) shard.Transport) flashr.Options {
		opts := chaosShardOptions()
		opts.Sharding = &flashr.ShardConfig{
			Shards: 2, Retries: 8, RetryBackoff: time.Millisecond,
			WrapTransport: wrap,
		}
		return opts
	}
	unfaulted := runChaosML(t, shardOpts(nil), nil, func(s *flashr.Session) {
		if err := s.Coordinator().CheckHandleBalance(); err != nil {
			t.Fatal(err)
		}
	})
	compareChannels(t, "unfaulted-shard vs local", local, unfaulted, false)

	type schedule struct {
		worker int
		before []int64
		after  []int64
	}
	var sweeps []schedule
	for w := 0; w < 2; w++ {
		for _, n := range []int64{1, 2, 3} {
			sweeps = append(sweeps, schedule{worker: w, before: []int64{n}})
		}
		for _, n := range []int64{1, 2} {
			sweeps = append(sweeps, schedule{worker: w, after: []int64{n}})
		}
	}
	for _, sc := range sweeps {
		sc := sc
		name := fmt.Sprintf("w%d-before%v-after%v", sc.worker, sc.before, sc.after)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var chaos *shard.FaultTransport
			opts := shardOpts(func(wi int, tr shard.Transport) shard.Transport {
				if wi != sc.worker {
					return tr
				}
				ct, err := shard.NewFaultTransport(tr, shard.FaultConfig{
					CrashBeforeExec: sc.before,
					CrashAfterExec:  sc.after,
				})
				if err != nil {
					t.Fatal(err)
				}
				chaos = ct
				return ct
			})
			got := runChaosML(t, opts, nil, func(s *flashr.Session) {
				coord := s.Coordinator()
				if chaos == nil || chaos.Crashes() == 0 {
					t.Fatal("chaos schedule never fired")
				}
				if coord.Recoveries() == 0 {
					t.Fatal("worker crashed but the coordinator recorded no recovery")
				}
				if err := coord.CheckHandleBalance(); err != nil {
					t.Fatalf("handle leak after recovery: %v", err)
				}
			})
			// The recovery path must reproduce the unfaulted sharded run
			// bit-for-bit, and therefore also match local within tolerance.
			compareChannels(t, "faulted vs unfaulted shard", unfaulted, got, true)
			compareChannels(t, "faulted shard vs local", local, got, false)
		})
	}
}

// shardWorkerProc is one flashr-shardworker process started by a test.
type shardWorkerProc struct {
	cmd    *exec.Cmd
	addr   string      // shard protocol address
	debug  string      // /metrics address
	lines  chan string // stdout, closed at EOF
	stderr bytes.Buffer
}

// startShardWorker starts bin on listen with a kernel-chosen debug port,
// and returns once the worker has printed both bound addresses.
func startShardWorker(t *testing.T, bin, listen string, extra ...string) *shardWorkerProc {
	t.Helper()
	args := append([]string{"-listen", listen, "-debug-addr", "127.0.0.1:0",
		"-part-rows", "256", "-workers", "4"}, extra...)
	// A worker prints a handful of lines; the buffer lets the reader run
	// ahead of a test that reads them only at startup and at drain.
	w := &shardWorkerProc{cmd: exec.Command(bin, args...), lines: make(chan string, 64)}
	w.cmd.Stderr = &w.stderr
	stdout, err := w.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.cmd.Process.Kill() })
	go func() {
		defer close(w.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			w.lines <- sc.Text()
		}
		io.Copy(io.Discard, stdout)
	}()
	after := func(line, marker string) string {
		if i := strings.Index(line, marker); i >= 0 {
			return strings.Fields(line[i+len(marker):])[0]
		}
		return ""
	}
	deadline := time.After(30 * time.Second)
	for w.addr == "" || w.debug == "" {
		select {
		case line, ok := <-w.lines:
			if !ok {
				t.Fatalf("worker on %s exited during startup: %s", listen, w.stderr.String())
			}
			if a := after(line, "listening on "); a != "" {
				w.addr = a
			}
			if a := after(line, "debug server on "); a != "" {
				w.debug = a
			}
		case <-deadline:
			t.Fatalf("worker on %s printed no bound addresses within 30s", listen)
		}
	}
	return w
}

// metric reads one unlabelled sample from the worker's /metrics.
func (w *shardWorkerProc) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + w.debug + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("worker %s exposes no %s", w.addr, name)
	return 0
}

// kill sends SIGKILL and reaps the process once its stdout is drained.
func (w *shardWorkerProc) kill(t *testing.T) {
	t.Helper()
	if err := w.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for range w.lines {
	}
	w.cmd.Wait()
}

// drain sends SIGTERM and requires exit 0 with a drain line whose accepted
// and answered counts are equal and nonzero.
func (w *shardWorkerProc) drain(t *testing.T) {
	t.Helper()
	if err := w.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var acc, ans int64 = -1, -1
	for line := range w.lines {
		if i := strings.Index(line, "drained "); i >= 0 {
			fmt.Sscanf(line[i:], "drained accepted=%d answered=%d", &acc, &ans)
		}
	}
	if err := w.cmd.Wait(); err != nil {
		t.Fatalf("worker %s after SIGTERM: %v: %s", w.addr, err, w.stderr.String())
	}
	if acc <= 0 || acc != ans {
		t.Fatalf("worker %s drained accepted=%d answered=%d", w.addr, acc, ans)
	}
}

// TestShardRealProcesses runs the chaos workloads over two real
// flashr-shardworker processes on loopback TCP. The clean run must match
// local within tolerance and show passes on each worker's /metrics. A
// SIGKILL of worker 0 between k-means and logistic, with a restart on the
// same address, must be recovered and held to the same channels as the
// in-process faulted runs. SIGTERM must then drain both workers.
func TestShardRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts flashr-shardworker processes")
	}
	bin := filepath.Join(t.TempDir(), "flashr-shardworker")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/flashr-shardworker").CombinedOutput(); err != nil {
		t.Fatalf("build flashr-shardworker: %v\n%s", err, out)
	}
	w0 := startShardWorker(t, bin, "127.0.0.1:0")
	w1 := startShardWorker(t, bin, "127.0.0.1:0")
	tcpOpts := func() flashr.Options {
		opts := chaosShardOptions()
		opts.Sharding = &flashr.ShardConfig{
			Addrs: []string{w0.addr, w1.addr}, Retries: 8, RetryBackoff: time.Millisecond,
		}
		return opts
	}

	local := runChaosML(t, chaosShardOptions(), nil, nil)
	clean := runChaosML(t, tcpOpts(), nil, func(s *flashr.Session) {
		if ms := s.TotalMaterializeStats(); ms.ShardPasses == 0 || ms.ShardAggRounds == 0 {
			t.Fatalf("TCP run reported passes=%d rounds=%d", ms.ShardPasses, ms.ShardAggRounds)
		}
	})
	compareChannels(t, "tcp shard vs local", local, clean, false)
	for _, w := range []*shardWorkerProc{w0, w1} {
		if p := w.metric(t, "flashr_materialize_passes_total"); p <= 0 {
			t.Fatalf("worker %s ran %v passes", w.addr, p)
		}
	}

	faulted := runChaosML(t, tcpOpts(), func() {
		w0.kill(t)
		w0 = startShardWorker(t, bin, w0.addr, "-rebind-wait", "10s")
	}, func(s *flashr.Session) {
		if s.Coordinator().Recoveries() == 0 {
			t.Fatal("worker 0 was killed but the coordinator recorded no recovery")
		}
	})
	compareChannels(t, "faulted vs unfaulted tcp shard", clean, faulted, true)
	compareChannels(t, "faulted tcp shard vs local", local, faulted, false)

	w0.drain(t)
	w1.drain(t)
}

// TestShardChaosTrace pins the observability half: a recovered pass must
// still produce a well-formed trace, with a shard-recover span on the root
// track counting the recoveries of that pass.
func TestShardChaosTrace(t *testing.T) {
	var chaos *shard.FaultTransport
	opts := chaosShardOptions()
	opts.Sharding = &flashr.ShardConfig{
		Shards: 2, Retries: 8, RetryBackoff: time.Millisecond,
		WrapTransport: func(wi int, tr shard.Transport) shard.Transport {
			if wi != 1 {
				return tr
			}
			ct, err := shard.NewFaultTransport(tr, shard.FaultConfig{
				CrashBeforeExec: []int64{2},
			})
			if err != nil {
				t.Fatal(err)
			}
			chaos = ct
			return ct
		},
	}
	s, err := flashr.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Engine().StartTrace()
	x, err := s.GenerateSeeded(chaosN, chaosP, 17, func(rng *rand.Rand, row []float64) {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ml.KMeans(s, x, chaosK, ml.KMeansOptions{MaxIter: chaosIters, InitCenters: chaosInitCenters()}); err != nil {
		t.Fatal(err)
	}
	data := s.Engine().StopTrace()
	if chaos == nil || chaos.Crashes() == 0 {
		t.Fatal("chaos schedule never fired")
	}
	if err := trace.Verify(data); err != nil {
		t.Fatalf("recovered pass produced a malformed trace: %v", err)
	}
	var recovers int64
	for _, ev := range data.Events {
		if ev.Kind == trace.KindRecover {
			if ev.Track != trace.TrackRoot {
				t.Fatalf("shard-recover span on track %d, want root", ev.Track)
			}
			recovers += ev.N
		}
	}
	if recovers == 0 {
		t.Fatal("no shard-recover span in the trace of a recovered run")
	}
}
