package safs

import (
	"errors"
	"fmt"
	"time"
)

// Faults is a fault-injection profile for a simulated SSD array. A real
// 24-SSD array produces transient bus errors, torn writes, and decayed cells
// as a matter of course; this profile reproduces those failure modes at
// configurable rates so the retry and checksum machinery can be exercised
// deterministically in tests and chaos runs. Install with FS.InjectFaults
// (nil clears). Rates are per piece attempt (one stripe-granular request on
// one drive) and are rolled on a per-drive seeded RNG, so a run with a fixed
// seed and a fixed request order replays the same faults.
type Faults struct {
	// Seed derives each drive's injection RNG (drive i uses Seed ⊕ f(i)).
	Seed int64
	// ReadErrRate is the probability a read attempt fails with a transient
	// ErrInjected (a bus hiccup: the retry path re-reads and recovers).
	ReadErrRate float64
	// WriteErrRate is the transient-failure probability for write attempts.
	WriteErrRate float64
	// FlipBitRate is the probability a read attempt returns data with one
	// flipped bit (transfer corruption). On a stripe with a recorded
	// checksum the flip is detected and the retry re-reads clean data; on a
	// stripe never written (no checksum) it reaches the caller's buffer.
	FlipBitRate float64
	// DropWriteRate is the probability a write is silently dropped (a torn
	// write: the drive reports success but the media keeps the old bytes).
	// The recorded checksum reflects the intended data, so the next read of
	// the stripe fails verification permanently.
	DropWriteRate float64
	// Latency is added to every piece attempt before any other processing.
	Latency time.Duration
}

// ErrInjected marks a fault-injected transient I/O error.
var ErrInjected = errors.New("safs: injected transient I/O error")

// ChecksumError reports a stripe whose data did not match its recorded
// CRC32C. It is retryable (transfer corruption heals on re-read); when the
// mismatch is on-media it survives every retry and surfaces wrapped in a
// StripeError naming the drive, file, and stripe.
type ChecksumError struct {
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("crc32c mismatch (want %08x, got %08x)", e.Want, e.Got)
}

// StripeError is a permanent I/O failure: one stripe-granular request that
// still failed after the retry budget. It names the drive, file, and stripe
// so an operator of a real array would know which device to pull.
type StripeError struct {
	Op       string // "read" or "write"
	Drive    int
	File     string
	Stripe   int64
	Attempts int
	Err      error
}

func (e *StripeError) Error() string {
	return fmt.Sprintf("safs: %s failed on drive %d, file %q, stripe %d after %d attempts: %v",
		e.Op, e.Drive, e.File, e.Stripe, e.Attempts, e.Err)
}

func (e *StripeError) Unwrap() error { return e.Err }
