package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// FaultError marks an injected transport fault. It classifies as transient,
// so the coordinator's retry policy must absorb injected faults exactly as it
// absorbs real network ones.
type FaultError struct {
	Kind string
	Op   uint8
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("shard: injected %s fault on %s", e.Kind, opName(e.Op))
}

// FaultConfig drives the fault-injecting transport wrapper. All probabilities
// are per-Call, drawn from one seeded stream, so a test run is reproducible.
type FaultConfig struct {
	Seed int64
	// DropProb loses the request before delivery: the inner transport is
	// never called and the caller sees a transient error.
	DropProb float64
	// ResetProb delivers and EXECUTES the request but loses the response —
	// the mid-stream connection reset case. Retries then re-execute the op,
	// so this axis tests handler idempotency, not just retry plumbing.
	ResetProb float64
	// DupProb delivers the request twice back-to-back (a retransmit racing a
	// slow ack); the second response is returned.
	DupProb float64
	// DelayProb stalls the call by Delay before delivery (latency spike).
	DelayProb float64
	Delay     time.Duration
	// CrashBeforeExec and CrashAfterExec schedule a simulated kill -9 +
	// restart of the in-process worker beneath (loopback.restart). Entries
	// are 1-based counts of non-recovery opExec calls seen on this transport,
	// retried attempts included:
	// CrashBeforeExec = {2} restarts the worker just before its second pass
	// request is delivered (the request then hits the fresh worker's fence),
	// CrashAfterExec = {2} restarts it right after the second pass executed
	// (the pass succeeded, its kept talls die and must be replayed before
	// pass three).
	CrashBeforeExec []int64
	CrashAfterExec  []int64
}

// FaultTransport wraps a Transport with seeded fault injection. Safe for
// concurrent Call (the RNG is mutex-guarded; concurrent schedules vary, but
// single-goroutine phases replay exactly).
type FaultTransport struct {
	inner Transport
	lb    *loopback // inner, when a crash schedule is set
	cfg   FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	execs, crashes              int64
	drops, resets, dups, delays int64
}

// NewFaultTransport wraps inner with the given fault plan. A crash schedule
// restarts the worker behind an in-process loopback, so it is refused on any
// other transport.
func NewFaultTransport(inner Transport, cfg FaultConfig) (*FaultTransport, error) {
	t := &FaultTransport{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if len(cfg.CrashBeforeExec)+len(cfg.CrashAfterExec) > 0 {
		lb, ok := inner.(*loopback)
		if !ok {
			return nil, fmt.Errorf("shard: a crash schedule needs an in-process worker, got %T", inner)
		}
		t.lb = lb
	}
	return t, nil
}

// Injected returns how many faults of each kind fired.
func (t *FaultTransport) Injected() (drops, resets, dups, delays int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops, t.resets, t.dups, t.delays
}

// Crashes returns how many scheduled crash/restarts fired.
func (t *FaultTransport) Crashes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crashes
}

// crashIf restarts the worker when plan schedules exec n (n == 0: the call
// is not a counted exec). The caller holds mu.
func (t *FaultTransport) crashIf(plan []int64, n int64) error {
	if n == 0 || !slices.Contains(plan, n) {
		return nil
	}
	if err := t.lb.restart(); err != nil {
		return err
	}
	t.crashes++
	return nil
}

func (t *FaultTransport) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	t.mu.Lock()
	var n int64
	if op == opExec && !isRecoveryCtx(ctx) {
		t.execs++
		n = t.execs
	}
	delay := t.rng.Float64() < t.cfg.DelayProb
	drop := t.rng.Float64() < t.cfg.DropProb
	reset := t.rng.Float64() < t.cfg.ResetProb
	dup := t.rng.Float64() < t.cfg.DupProb
	if delay {
		t.delays++
	}
	switch {
	case drop:
		t.drops++
	case reset:
		t.resets++
	case dup:
		t.dups++
	}
	cerr := t.crashIf(t.cfg.CrashBeforeExec, n)
	t.mu.Unlock()
	if cerr != nil {
		return nil, cerr
	}
	resp, err := t.deliver(ctx, op, body, delay, drop, reset, dup)
	t.mu.Lock()
	defer t.mu.Unlock()
	if cerr := t.crashIf(t.cfg.CrashAfterExec, n); cerr != nil {
		return nil, cerr
	}
	return resp, err
}

// deliver applies one call's drawn faults around the inner transport.
func (t *FaultTransport) deliver(ctx context.Context, op uint8, body []byte, delay, drop, reset, dup bool) ([]byte, error) {
	if delay {
		select {
		case <-time.After(t.cfg.Delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if drop {
		return nil, &FaultError{Kind: "drop", Op: op}
	}
	if reset {
		// The worker sees and executes the request; the response is lost.
		t.inner.Call(ctx, op, body)
		return nil, &FaultError{Kind: "reset", Op: op}
	}
	if dup {
		if _, err := t.inner.Call(ctx, op, body); err != nil {
			return nil, err
		}
	}
	return t.inner.Call(ctx, op, body)
}

func (t *FaultTransport) Close() error { return t.inner.Close() }

// recoveryCtxKey marks RPCs issued by the coordinator's recovery path
// (re-hello, re-push, lineage replay). The fault transport skips them when
// counting execs for its crash schedule, so a scheduled crash fires once, at
// the request it targets, instead of re-firing against its own repair
// traffic.
type recoveryCtxKey struct{}

func withRecovery(ctx context.Context) context.Context {
	return context.WithValue(ctx, recoveryCtxKey{}, true)
}

func isRecoveryCtx(ctx context.Context) bool {
	v, _ := ctx.Value(recoveryCtxKey{}).(bool)
	return v
}
