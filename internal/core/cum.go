package core

import (
	"errors"
	"sync"
)

// cumCoord coordinates cumulative GenOps down the partition dimension
// (cum.col on a tall matrix, Figure 5 (j)): partition i's output depends on
// the column accumulator ("carry") left by partition i-1. The paper
// evaluates this with a single scan by exploiting sequential task dispatch:
// a thread whose carry is not yet available waits; because partitions are
// dispatched in order, some thread always holds the preceding partition and
// progress is guaranteed. errAborted wakes waiters when the pass fails.
type cumCoord struct {
	mu   sync.Mutex
	cond *sync.Cond
	idx  []int32 // cum.col instructions
	// carries[k][p] is the accumulator entering partition p for cum.col
	// instruction idx[k]; ready[p] is set once every one is published. The
	// entry past the last partition is the pass's exit carry.
	carries [][][]float64
	ready   []bool
	aborted bool
}

var errAborted = errors.New("core: materialization aborted")

// newCumCoord seeds every cum.col instruction of p with the accumulator
// entering the pass: seeds[i] when given (a shard continuing a scan a
// preceding shard began), the fold identity otherwise.
func newCumCoord(p *Program, seeds map[int32][]float64, nparts int) *cumCoord {
	c := &cumCoord{
		idx:     p.cums,
		carries: make([][][]float64, len(p.cums)),
		ready:   make([]bool, nparts+1),
	}
	c.cond = sync.NewCond(&c.mu)
	for k, i := range p.cums {
		n := &p.Nodes[i]
		init := make([]float64, n.NCol)
		if seed, ok := seeds[i]; ok {
			copy(init, seed)
		} else {
			for j := range init {
				init[j] = n.agg.Init
			}
		}
		c.carries[k] = make([][]float64, nparts+1)
		c.carries[k][0] = init
	}
	c.ready[0] = true
	return c
}

// wait blocks until partition p's carries are available and installs a
// private copy of each in runs, indexed by instruction (the worker mutates
// its copy while scanning the partition).
func (c *cumCoord) wait(p int, runs [][]float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.ready[p] && !c.aborted {
		c.cond.Wait()
	}
	if c.aborted {
		return errAborted
	}
	for k, i := range c.idx {
		runs[i] = append(runs[i][:0], c.carries[k][p]...)
	}
	return nil
}

// publish records the accumulators leaving partition p-1 (= entering p) and
// wakes waiters.
func (c *cumCoord) publish(p int, runs [][]float64) {
	c.mu.Lock()
	if p < len(c.ready) {
		for k, i := range c.idx {
			c.carries[k][p] = append([]float64(nil), runs[i]...)
		}
		c.ready[p] = true
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// exits returns each cum.col instruction's accumulator after the last
// partition. Valid once the pass completed.
func (c *cumCoord) exits() map[int32][]float64 {
	out := make(map[int32][]float64, len(c.idx))
	for k, i := range c.idx {
		out[i] = c.carries[k][len(c.ready)-1]
	}
	return out
}

// abort wakes all waiters with failure.
func (c *cumCoord) abort() {
	c.mu.Lock()
	c.aborted = true
	c.cond.Broadcast()
	c.mu.Unlock()
}
