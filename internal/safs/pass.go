package safs

// Pass identifies one materialization pass to the array for weighted fair
// sharing and per-pass attribution. The real SAFS is shared by many
// concurrent workloads on one SSD array; a Pass is how one workload's I/O is
// told apart from another's. Requests tagged with a Pass land in that pass's
// per-drive queue (served by weighted deficit round robin against the other
// active passes) and bump the pass's own counters alongside the array-wide
// ones, so concurrent passes get exact, race-free attribution instead of
// diffing the global counters around a region.
//
// A Pass is cheap: registration allocates no queue — each drive materializes
// a queue for the pass when its first request arrives and drops it when it
// drains. Untagged I/O (nil pass) shares one default queue per drive.
type Pass struct {
	id     int64
	weight int
	ctr    counters
}

// ID returns the pass's array-unique identifier (diagnostics).
func (p *Pass) ID() int64 { return p.id }

// Weight returns the pass's fair-share weight.
func (p *Pass) Weight() int { return p.weight }

// Stats returns a snapshot of the I/O attributed to this pass. Safe to call
// while the pass's requests are in flight; the snapshot is per-field atomic.
func (p *Pass) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return p.ctr.snapshot()
}

// RegisterPass creates a pass identity with the given fair-share weight
// (values < 1 mean 1). Passes need no unregistration: a pass's drive queues
// are dropped as they drain, so an abandoned Pass costs only its counters.
func (fs *FS) RegisterPass(weight int) *Pass {
	if weight < 1 {
		weight = 1
	}
	return &Pass{id: fs.passSeq.Add(1), weight: weight}
}
