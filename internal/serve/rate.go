package serve

import (
	"math"
	"sync"
	"time"
)

// rateController sizes the batcher's flush window from the measured request
// arrival rate. A fixed window forces a trade the operator must guess in
// advance: a long window coalesces well under load but taxes every request
// with its full length when traffic is sparse; a short one answers fast but
// forfeits coalescing exactly when it pays most. The controller resolves it
// per batch: it tracks an EWMA of inter-arrival gaps per tenant, sums the
// tenants' rates into an aggregate λ, and sizes the window to the time it
// expects (maxBatch−1) more requests to take to arrive —
//
//	window = clamp((maxBatch−1)/λ, floor, ceil)
//
// — collapsing to the floor when λ·ceil < 1 (no company is coming within
// even the longest window, so waiting buys nothing). With floor == ceil the
// window is that constant whatever λ is. Staleness is handled at read time:
// a tenant's effective gap is max(EWMA gap, time since its last arrival), so
// a burst that ended decays the aggregate rate instead of holding the window
// small forever.
type rateController struct {
	floor, ceil time.Duration
	maxBatch    int

	mu      sync.Mutex
	tenants map[string]*tenantRate
}

type tenantRate struct {
	last time.Time // last arrival
	gap  float64   // EWMA inter-arrival gap, seconds
	init bool      // a gap has been observed
}

// rateAlpha is the EWMA smoothing factor: ~the last 10 arrivals dominate.
const rateAlpha = 0.2

// rateMaxGap caps one observed gap so a single long pause cannot poison the
// average; tenants idle past pruneAfter are forgotten entirely.
const (
	rateMaxGap = 10.0 // seconds
	pruneAfter = 60 * time.Second
)

func newRateController(floor, ceil time.Duration, maxBatch int) *rateController {
	if floor <= 0 {
		floor = time.Millisecond
	}
	if ceil < floor {
		ceil = floor
	}
	if maxBatch < 2 {
		maxBatch = 2
	}
	return &rateController{floor: floor, ceil: ceil, maxBatch: maxBatch, tenants: make(map[string]*tenantRate)}
}

// observe records one arrival for the tenant.
func (rc *rateController) observe(tenant string, now time.Time) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	tr, ok := rc.tenants[tenant]
	if !ok {
		rc.tenants[tenant] = &tenantRate{last: now}
		return
	}
	gap := now.Sub(tr.last).Seconds()
	if gap < 0 {
		gap = 0
	}
	if gap > rateMaxGap {
		gap = rateMaxGap
	}
	if tr.init {
		tr.gap = (1-rateAlpha)*tr.gap + rateAlpha*gap
	} else {
		tr.gap = gap
		tr.init = true
	}
	tr.last = now
}

// rate returns the aggregate arrival rate λ in requests/second as of now.
func (rc *rateController) rate(now time.Time) float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var sum float64
	for name, tr := range rc.tenants {
		idle := now.Sub(tr.last)
		if idle > pruneAfter {
			delete(rc.tenants, name)
			continue
		}
		if !tr.init {
			continue
		}
		// Staleness decay: the tenant cannot be arriving faster than its
		// silence since the last request allows.
		gap := math.Max(tr.gap, idle.Seconds())
		if gap <= 0 {
			gap = 1e-6
		}
		sum += 1 / gap
	}
	return sum
}

// window sizes the next batch's flush window from the current aggregate rate.
func (rc *rateController) window(now time.Time) time.Duration {
	lambda := rc.rate(now)
	if lambda*rc.ceil.Seconds() < 1 {
		return rc.floor
	}
	w := time.Duration(float64(rc.maxBatch-1) / lambda * float64(time.Second))
	if w < rc.floor {
		w = rc.floor
	}
	if w > rc.ceil {
		w = rc.ceil
	}
	return w
}
