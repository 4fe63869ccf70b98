package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Transport carries one coordinator→worker RPC channel. Call sends one
// request and returns the response payload, honoring ctx's deadline.
// Implementations must be safe for concurrent Call.
type Transport interface {
	Call(ctx context.Context, op uint8, body []byte) ([]byte, error)
	Close() error
}

// WireError is an application-level error returned by a worker (a status-1
// response frame). It is never transient: the request was delivered and
// processed, the worker rejected it — retrying cannot help.
type WireError struct {
	Op  uint8
	Msg string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("shard: remote %s error: %s", opName(e.Op), e.Msg)
}

// EpochError is the fencing rejection: the request's (epoch, boot) fence did
// not match the worker's current session epoch and boot id. It is returned by
// a restarted worker that has not re-done the hello handshake, or to a stale
// coordinator whose session the worker no longer serves. It is not transient
// — blind retries cannot help — but the coordinator's recovery path (re-hello,
// re-push, lineage replay) converts it into a retryable condition.
type EpochError struct {
	Op  uint8
	Msg string
}

func (e *EpochError) Error() string {
	return fmt.Sprintf("shard: %s fenced: %s", opName(e.Op), e.Msg)
}

// ShardError wraps any failure of one worker's RPC with its identity — the
// typed error the coordinator surfaces after the retry budget is exhausted.
// Reason is "epoch" when the final failure was a fencing rejection the
// recovery path could not clear.
type ShardError struct {
	Worker int
	Op     uint8
	Reason string
	Err    error
}

func (e *ShardError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("shard: worker %d %s (%s): %v", e.Worker, opName(e.Op), e.Reason, e.Err)
	}
	return fmt.Sprintf("shard: worker %d %s: %v", e.Worker, opName(e.Op), e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// isTransient classifies an RPC failure for the retry policy, mirroring the
// storage layer's stance: network-level faults (timeouts, resets, torn
// connections, injected faults) are retried against idempotent ops; remote
// application errors and context cancellation are not.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	var we *WireError
	if errors.As(err, &we) {
		return false
	}
	var ee *EpochError
	if errors.As(err, &ee) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	return false
}

// loopback is the in-process transport: request bytes go straight into the
// worker's Handle dispatch, so tests exercise the full wire codec with
// deterministic delivery. It keeps the config its worker was built with, so
// restart can stand in for a worker process killed and started again.
type loopback struct {
	cfg core.Config

	mu sync.Mutex
	w  *Worker
}

func newLoopback(cfg core.Config) (*loopback, error) {
	w, err := NewWorker(cfg)
	if err != nil {
		return nil, err
	}
	return &loopback{cfg: cfg, w: w}, nil
}

func (l *loopback) worker() *Worker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w
}

// restart simulates kill -9 + restart: a fresh Worker from the same config
// (new boot id, no session epoch, no resident matrices) replaces the
// current one, which is closed.
func (l *loopback) restart() error {
	fresh, err := NewWorker(l.cfg)
	if err != nil {
		return fmt.Errorf("shard: worker restart: %w", err)
	}
	l.mu.Lock()
	old := l.w
	l.w = fresh
	l.mu.Unlock()
	return old.Close()
}

func (l *loopback) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.worker().Handle(ctx, op, body)
}

func (l *loopback) Close() error { return nil }

// TCP framing: a request is [u32 BE frame length][u8 op][body], a response is
// [u32 BE frame length][u8 status][payload] with status 0 = ok (payload is
// the response body), 1 = application error (payload is the message), and
// 2 = fencing rejection (payload is the message; decoded as *EpochError so
// the coordinator's recovery path can distinguish it from plain rejections).
const (
	statusOK    uint8 = 0
	statusErr   uint8 = 1
	statusEpoch uint8 = 2

	// maxFrame bounds one frame; larger means a corrupt stream.
	maxFrame = 1<<28 + 64
)

// tcpTransport is a lazy-dialing single-connection client. One in-flight
// request per connection (the coordinator's per-worker RPCs are sequential
// within a pass phase); any I/O error tears the connection down so the next
// attempt redials — together with idempotent ops this makes mid-stream
// resets retryable. A failure on a reused connection before any response
// byte arrived (the idle-reset / ECONNRESET case) redials and resends once
// within the same Call, so a worker restart between passes costs one redial
// instead of one retry-budget attempt.
type tcpTransport struct {
	addr    string
	timeout time.Duration

	redials atomic.Int64

	mu   sync.Mutex
	conn net.Conn
}

func newTCPTransport(addr string, timeout time.Duration) *tcpTransport {
	return &tcpTransport{addr: addr, timeout: timeout}
}

// Redials returns how many same-call redial-and-resend recoveries this
// transport performed (tests, observability).
func (t *tcpTransport) Redials() int64 { return t.redials.Load() }

func (t *tcpTransport) Call(ctx context.Context, op uint8, body []byte) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	deadline := time.Now().Add(t.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	reused := t.conn != nil
	resp, sawResp, err := t.attempt(ctx, op, body, deadline)
	if err != nil && reused && !sawResp && ctx.Err() == nil {
		// The stale-connection case: the peer closed the idle conn (or
		// restarted) and nothing of the response arrived, so resending on a
		// fresh dial is safe exactly once per call.
		t.redials.Add(1)
		resp, _, err = t.attempt(ctx, op, body, deadline)
	}
	return resp, err
}

// attempt sends one framed request on the current (or freshly dialed)
// connection. sawResp reports whether any response bytes arrived — if so the
// request was processed and the caller must not silently resend it.
func (t *tcpTransport) attempt(ctx context.Context, op uint8, body []byte, deadline time.Time) (payload []byte, sawResp bool, err error) {
	if t.conn == nil {
		d := net.Dialer{Deadline: deadline}
		conn, derr := d.DialContext(ctx, "tcp", t.addr)
		if derr != nil {
			return nil, false, derr
		}
		t.conn = conn
	}
	conn := t.conn
	if err := conn.SetDeadline(deadline); err != nil {
		t.drop()
		return nil, false, err
	}
	frame := make([]byte, 5+len(body))
	binary.BigEndian.PutUint32(frame, uint32(1+len(body)))
	frame[4] = op
	copy(frame[5:], body)
	if _, err := conn.Write(frame); err != nil {
		t.drop()
		return nil, false, err
	}
	var hdr [4]byte
	if n, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.drop()
		return nil, n > 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		t.drop()
		return nil, true, fmt.Errorf("shard: response frame length %d out of range", n)
	}
	resp := make([]byte, n)
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.drop()
		return nil, true, err
	}
	switch resp[0] {
	case statusOK:
		return resp[1:], true, nil
	case statusErr:
		return nil, true, &WireError{Op: op, Msg: string(resp[1:])}
	case statusEpoch:
		return nil, true, &EpochError{Op: op, Msg: string(resp[1:])}
	default:
		t.drop()
		return nil, true, fmt.Errorf("shard: response status %d unknown", resp[0])
	}
}

func (t *tcpTransport) drop() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
}

func (t *tcpTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.drop()
	return nil
}

// Server serves a Worker over TCP. Accepted counts request frames read,
// Answered counts response frames written; Drain stops accepting new
// connections, waits for in-flight requests, and the two counters match on a
// clean shutdown — the smoke test's drain assertion.
type Server struct {
	w  *Worker
	ln net.Listener

	accepted atomic.Int64
	answered atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves w until Drain or
// Close.
func NewServer(addr string, w *Worker) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{w: w, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Accepted returns the number of request frames read so far.
func (s *Server) Accepted() int64 { return s.accepted.Load() }

// Answered returns the number of response frames written so far.
func (s *Server) Answered() int64 { return s.answered.Load() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n < 1 || n > maxFrame {
			return
		}
		req := make([]byte, n)
		if _, err := io.ReadFull(conn, req); err != nil {
			return
		}
		s.accepted.Add(1)
		resp, herr := s.w.Handle(context.Background(), req[0], req[1:])
		var payload []byte
		status := statusOK
		if herr != nil {
			status = statusErr
			var ee *EpochError
			if errors.As(herr, &ee) {
				status = statusEpoch
				payload = []byte(ee.Msg)
			} else {
				payload = []byte(herr.Error())
			}
		} else {
			payload = resp
		}
		frame := make([]byte, 5+len(payload))
		binary.BigEndian.PutUint32(frame, uint32(1+len(payload)))
		frame[4] = status
		copy(frame[5:], payload)
		if _, err := conn.Write(frame); err != nil {
			return
		}
		s.answered.Add(1)
	}
}

// Drain stops accepting, waits for every in-flight request to be answered,
// then closes all connections. Safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	// Connections idle between requests park in ReadFull; nudge them loose so
	// serveConn returns once its current request (if any) is answered.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		case <-time.After(50 * time.Millisecond):
			s.mu.Lock()
			for c := range s.conns {
				c.SetReadDeadline(time.Now())
			}
			s.mu.Unlock()
		}
	}
}

// Close is Drain.
func (s *Server) Close() error {
	s.Drain()
	return nil
}
