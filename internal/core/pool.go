package core

import (
	"fmt"
	"sync"
)

// bufPool is the engine's buffer pool, alive as long as the engine. Worker
// chunk slots, leaf read and prefetch targets and tall-output partition
// buffers all come from it and go back to it, so a pass after the first
// allocates almost nothing (SAFS reads straight into reused user buffers the
// same way). Classes are exact lengths: chunk and partition shapes repeat
// from pass to pass, so a class nearly always hits.
//
// Idle retention follows the passes. Whenever the pool goes idle (no buffer
// checked out, so no pass holds one), each class is trimmed to the larger of
// its high-water marks of buffers out at once over the last two busy
// periods, and a class neither period used is dropped. Two periods rather
// than one, so a round that alternates two passes with different needs keeps
// both passes' buffers instead of reallocating the difference every round.
type bufPool struct {
	mu      sync.Mutex
	classes map[int]*bufClass
	out     int // buffers checked out, over all classes
}

type bufClass struct {
	free     [][]float64
	out      int // checked out now
	peak     int // most out at once in the current busy period
	prevPeak int // the same over the previous busy period
}

// get checks out a buffer of exactly n floats. Its contents are whatever the
// last user left: every caller overwrites it in full.
func (p *bufPool) get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	c := p.classes[n]
	if c == nil {
		if p.classes == nil {
			p.classes = make(map[int]*bufClass)
		}
		c = &bufClass{}
		p.classes[n] = c
	}
	c.out++
	c.peak = max(c.peak, c.out)
	p.out++
	var b []float64
	if k := len(c.free); k > 0 {
		b = c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]float64, n)
	}
	return b
}

// put checks a buffer back in. Putting back a buffer the pool already holds
// (or one it never handed out) panics: buffers outlive passes, so a double
// put would hand one buffer to two passes and corrupt both silently.
func (p *bufPool) put(b []float64) {
	if len(b) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.classes[len(b)]
	held := c == nil || c.out == 0
	for i := 0; !held && i < len(c.free); i++ {
		held = &c.free[i][0] == &b[0]
	}
	if held {
		panic(fmt.Sprintf("core: %d-float buffer put back into the engine pool twice, or never taken from it", len(b)))
	}
	c.out--
	c.free = append(c.free, b)
	p.out--
	if p.out == 0 {
		p.trimLocked()
	}
}

// trimLocked ends a busy period: every class keeps at most what the last two
// periods needed at once.
func (p *bufPool) trimLocked() {
	for n, c := range p.classes {
		keep := max(c.peak, c.prevPeak)
		if keep == 0 {
			delete(p.classes, n)
			continue
		}
		if len(c.free) > keep {
			clear(c.free[keep:])
			c.free = c.free[:keep]
		}
		c.prevPeak, c.peak = c.peak, 0
	}
}
