package shard

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// lineageRec records how one pass produced its kept talls: the serialized
// program (sinks stripped — replay reconstructs worker-resident state, it
// must never re-publish aggregates), the keep handle per tall position, and
// per-worker execution state. Together with the pushed-leaf registry this is
// enough to rebuild any worker's resident matrices from scratch after a
// restart: re-push its leaves, then re-run each record's shard in pass order,
// threading the recorded entry carries.
type lineageRec struct {
	seq  int64
	nrow int64
	prog *core.Program
	// keeps is the worker-side handle per tall position; leafRefs are the
	// program's leaf handles (registry pushes or earlier records' keeps).
	keeps    []string
	leafRefs []string

	carriesIn []map[int32][]float64 // per worker: entry carries its exec was issued with
	done      []bool                // per worker: exec completed there
	live      []bool                // per keep position: a RemoteStore still references it
	final     bool                  // pass finished (stores attached)
}

// lineage is the coordinator's replay table. Records are registered when a
// pass's exec phase starts, finalized when its RemoteStores attach, and
// pruned once no live keep depends on them (directly or through a chain of
// keep-consuming passes).
type lineage struct {
	mu   sync.Mutex
	seq  int64
	recs []*lineageRec
}

func leafRefsOf(p *core.Program) []string {
	var refs []string
	seen := make(map[string]bool)
	for i := range p.Nodes {
		if l := p.Nodes[i].Leaf; l != "" && !seen[l] {
			seen[l] = true
			refs = append(refs, l)
		}
	}
	return refs
}

// begin registers an in-flight pass. The program is shallow-copied with its
// sinks stripped so replay recomputes only the kept talls.
func (l *lineage) begin(nworkers int, nrow int64, prog *core.Program, keeps []string) *lineageRec {
	stripped := *prog
	stripped.Sinks = nil
	rec := &lineageRec{
		nrow:      nrow,
		prog:      &stripped,
		keeps:     append([]string(nil), keeps...),
		leafRefs:  leafRefsOf(prog),
		carriesIn: make([]map[int32][]float64, nworkers),
		done:      make([]bool, nworkers),
		live:      make([]bool, len(keeps)),
	}
	l.mu.Lock()
	l.seq++
	rec.seq = l.seq
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
	return rec
}

// setCarry records the entry carries worker wi's exec is about to be issued
// with (the sequential cum chain's resume point).
func (l *lineage) setCarry(rec *lineageRec, wi int, carries map[int32][]float64) {
	if rec == nil {
		return
	}
	l.mu.Lock()
	rec.carriesIn[wi] = carries
	l.mu.Unlock()
}

// markDone records that worker wi executed its shard of rec's pass.
func (l *lineage) markDone(rec *lineageRec, wi int) {
	if rec == nil {
		return
	}
	l.mu.Lock()
	rec.done[wi] = true
	l.mu.Unlock()
}

// finish finalizes a successful pass with every keep live: each has a
// RemoteStore now, and one the engine cannot attach (a concurrent pass
// materialized the target first) is freed, which marks it dead.
func (l *lineage) finish(rec *lineageRec) {
	if rec == nil {
		return
	}
	l.mu.Lock()
	for j := range rec.live {
		rec.live[j] = true
	}
	rec.final = true
	l.pruneLocked()
	l.mu.Unlock()
}

// abort drops an in-flight record after its pass failed (the keeps it would
// have produced are being cleaned up).
func (l *lineage) abort(rec *lineageRec) {
	if rec == nil {
		return
	}
	l.mu.Lock()
	for i, r := range l.recs {
		if r == rec {
			l.recs = append(l.recs[:i], l.recs[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
}

// markDead clears the live flag of any keep registered under handle (its
// RemoteStore was freed) and prunes records no live chain depends on.
func (l *lineage) markDead(handle string) {
	l.mu.Lock()
	for _, r := range l.recs {
		for j, h := range r.keeps {
			if h == handle {
				r.live[j] = false
			}
		}
	}
	l.pruneLocked()
	l.mu.Unlock()
}

// neededLocked returns the records (in pass order) whose replay may still be
// required: those with live keeps or still in flight, plus — transitively —
// earlier records whose keeps they consume as leaves.
func (l *lineage) neededLocked() []*lineageRec {
	need := make(map[string]bool)
	mark := make([]bool, len(l.recs))
	for i := len(l.recs) - 1; i >= 0; i-- {
		r := l.recs[i]
		wanted := !r.final
		for j := range r.keeps {
			if r.live[j] || need[r.keeps[j]] {
				wanted = true
			}
		}
		if !wanted {
			continue
		}
		mark[i] = true
		for _, ref := range r.leafRefs {
			need[ref] = true
		}
	}
	out := l.recs[:0:0]
	for i, k := range mark {
		if k {
			out = append(out, l.recs[i])
		}
	}
	return out
}

func (l *lineage) pruneLocked() {
	needed := l.neededLocked()
	if len(needed) != len(l.recs) {
		l.recs = needed
	}
}

// replayStep is one record's worker-wi slice of the recovery plan, snapshotted
// under the lineage lock so replay runs race-free against concurrent passes.
type replayStep struct {
	seq     int64
	nrow    int64
	prog    *core.Program
	keeps   []string
	carries map[int32][]float64
	live    []bool
	final   bool
}

// replayPlan returns the pass-ordered steps needed to rebuild worker wi's
// kept talls, validating that every consumed leaf is either re-pushable
// (avail) or the keep of an earlier replayed record. Records whose exec never
// ran on wi are skipped — the interrupted pass's own retry covers them.
func (l *lineage) replayPlan(wi int, avail map[string]bool) ([]replayStep, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.neededLocked()
	keeps := make(map[string]bool)
	var plan []replayStep
	for _, r := range recs {
		for _, ref := range r.leafRefs {
			if !avail[ref] && !keeps[ref] {
				return nil, fmt.Errorf("shard: lineage broken: pass %d consumes %q, which is neither a re-pushable leaf nor a replayable keep", r.seq, ref)
			}
		}
		for _, h := range r.keeps {
			if h != "" {
				keeps[h] = true
			}
		}
		if !r.done[wi] {
			continue
		}
		plan = append(plan, replayStep{
			seq:     r.seq,
			nrow:    r.nrow,
			prog:    r.prog,
			keeps:   append([]string(nil), r.keeps...),
			carries: r.carriesIn[wi],
			live:    append([]bool(nil), r.live...),
			final:   r.final,
		})
	}
	return plan, nil
}

// snapshot copies the table for checkpointing.
func (l *lineage) snapshot() (seq int64, recs []*lineageRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq = l.seq
	for _, r := range l.recs {
		cp := &lineageRec{
			seq:       r.seq,
			nrow:      r.nrow,
			prog:      r.prog,
			keeps:     append([]string(nil), r.keeps...),
			leafRefs:  append([]string(nil), r.leafRefs...),
			carriesIn: append([]map[int32][]float64(nil), r.carriesIn...),
			done:      append([]bool(nil), r.done...),
			live:      append([]bool(nil), r.live...),
			final:     r.final,
		}
		recs = append(recs, cp)
	}
	return seq, recs
}

// restore installs a checkpointed table.
func (l *lineage) restore(seq int64, recs []*lineageRec) {
	l.mu.Lock()
	l.seq = seq
	l.recs = recs
	l.mu.Unlock()
}
