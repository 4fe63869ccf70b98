package safs

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWriteBackOrderAndDrain checks that all enqueued jobs complete by the
// Drain barrier and that release runs for every job.
func TestWriteBackOrderAndDrain(t *testing.T) {
	wb := NewWriteBack(2, nil)
	var released atomic.Int32
	var wrote atomic.Int32
	for i := 0; i < 20; i++ {
		wb.Enqueue(8, func() error {
			wrote.Add(1)
			return nil
		}, func() { released.Add(1) })
	}
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}
	if wrote.Load() != 20 || released.Load() != 20 {
		t.Fatalf("wrote=%d released=%d, want 20/20", wrote.Load(), released.Load())
	}
	st := wb.Stats()
	if st.Jobs != 20 || st.Bytes != 160 {
		t.Fatalf("stats jobs=%d bytes=%d, want 20/160", st.Jobs, st.Bytes)
	}
}

// TestWriteBackFirstError verifies the first failure is surfaced both via
// the onErr callback and Drain, and that release still runs on failure.
func TestWriteBackFirstError(t *testing.T) {
	boom := errors.New("boom")
	var cbErr atomic.Value
	wb := NewWriteBack(4, func(err error) { cbErr.Store(err) })
	var released atomic.Int32
	for i := 0; i < 8; i++ {
		fail := i == 3
		wb.Enqueue(1, func() error {
			if fail {
				return boom
			}
			return nil
		}, func() { released.Add(1) })
	}
	if err := wb.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain err = %v, want %v", err, boom)
	}
	if got, _ := cbErr.Load().(error); !errors.Is(got, boom) {
		t.Fatalf("onErr got %v, want %v", got, boom)
	}
	if released.Load() != 8 {
		t.Fatalf("released=%d, want 8", released.Load())
	}
}

// TestWriteBackDepthBound proves the queue blocks producers at depth: with
// depth 1 and slow writes, enqueues serialize and stall time accrues. A depth
// below 1 has no meaning and panics.
func TestWriteBackDepthBound(t *testing.T) {
	for _, depth := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWriteBack(%d) did not panic", depth)
				}
			}()
			NewWriteBack(depth, nil)
		}()
	}
	wb := NewWriteBack(1, nil)
	var inFlight, peak atomic.Int32
	for i := 0; i < 4; i++ {
		wb.Enqueue(1, func() error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
			return nil
		}, nil)
	}
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Fatalf("peak in-flight = %d, want 1", peak.Load())
	}
	if wb.Stats().Stall <= 0 {
		t.Fatal("expected stall time to accrue at depth 1")
	}
}

// TestWriteBackAgainstFS pushes real striped-file writes through the queue
// and confirms the data lands, including async error delivery for a write
// past EOF.
func TestWriteBackAgainstFS(t *testing.T) {
	fs := newFS(t, 2, 0, 0)
	const parts, psize = 8, 4096
	f, err := fs.Create("wb", parts*psize)
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWriteBack(3, nil)
	for i := 0; i < parts; i++ {
		buf := make([]byte, psize)
		for j := range buf {
			buf[j] = byte(i)
		}
		off := int64(i) * psize
		wb.Enqueue(psize, func() error { return f.WriteAt(buf, off) }, nil)
	}
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, parts*psize)
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parts; i++ {
		for j := 0; j < psize; j++ {
			if got[i*psize+j] != byte(i) {
				t.Fatalf("part %d byte %d = %d", i, j, got[i*psize+j])
			}
		}
	}
	// A write that falls outside the file must surface at Drain.
	wb2 := NewWriteBack(2, nil)
	bad := make([]byte, psize)
	wb2.Enqueue(psize, func() error { return f.WriteAt(bad, parts*psize) }, nil)
	if err := wb2.Drain(); err == nil {
		t.Fatal("expected out-of-range write error from Drain")
	}
}

// TestAsyncErrorDelivery checks that out-of-range requests and requests
// after Close report errors — an async read through its tagged completion —
// rather than panicking or hanging.
func TestAsyncErrorDelivery(t *testing.T) {
	fs := newFS(t, 2, 0, 0)
	f, err := fs.Create("ae", 1024)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Request, 2)
	f.ReadAsyncPass(make([]byte, 512), 900, 7, done, nil) // spans past EOF
	if r := <-done; r.Err == nil || r.Tag != 7 {
		t.Fatalf("want tagged error, got tag=%d err=%v", r.Tag, r.Err)
	}
	if err := f.WriteAt(make([]byte, 512), 900); err == nil {
		t.Fatal("write past EOF succeeded")
	}
	// A valid write after an error still works.
	if err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatalf("valid write failed: %v", err)
	}
	got := make([]byte, 5)
	if err := f.ReadAt(got, 0); err != nil || string(got) != "hello" {
		t.Fatalf("readback: %q err=%v", got, err)
	}
	fs.Close()
	if err := f.WriteAt([]byte("hello"), 0); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("write after Close: %v", err)
	}
	f.ReadAsyncPass(got, 0, 9, done, nil)
	if r := <-done; r.Err == nil || r.Tag != 9 {
		t.Fatalf("read after Close: tag=%d err=%v", r.Tag, r.Err)
	}
}

// TestQueueDepthConfig sanity-checks that a tiny per-drive queue depth still
// completes large multi-piece requests (no deadlock between pieces of one
// request sharing a drive queue).
func TestQueueDepthConfig(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(Config{
		Drives:      []string{dir + "/d0", dir + "/d1"},
		StripeBytes: 1024,
		QueueDepth:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const size = 64 * 1024 // 64 stripes → 32 pieces per drive
	f, err := fs.Create(fmt.Sprintf("qd%d", size), size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}
