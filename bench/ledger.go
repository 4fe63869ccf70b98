package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/trace"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), which
// is what the driver uses to judge spread. One value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

func maxOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// hspan is one harness span: run → round → step, each with an id and its
// parent's id. Start and End count from the run's epoch.
type hspan struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = none
	Kind   string        `json:"kind"`   // run, round, step
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps harness spans in memory; they are written once, at the end.
type recorder struct {
	epoch time.Time
	spans []hspan
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(kind, name string, parent int) int {
	r.spans = append(r.spans, hspan{ID: len(r.spans) + 1, Parent: parent, Kind: kind, Name: name, Start: time.Since(r.epoch)})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	sp := &r.spans[id-1]
	sp.End = time.Since(r.epoch)
	return sp.End - sp.Start
}

// selfTimes sums, per span kind, each span's duration minus the part its
// direct children on the same (pass, track) cover. Tracks are execution
// lanes, so spans on one are nested or disjoint.
func selfTimes(evs []trace.Event) map[trace.Kind]time.Duration {
	type lane struct {
		pass  int64
		track int32
	}
	lanes := map[lane][]trace.Event{}
	for _, ev := range evs {
		k := lane{ev.Pass, ev.Track}
		lanes[k] = append(lanes[k], ev)
	}
	self := map[trace.Kind]time.Duration{}
	for _, l := range lanes {
		sort.Slice(l, func(i, j int) bool {
			if l[i].Start != l[j].Start {
				return l[i].Start < l[j].Start
			}
			return l[i].End > l[j].End // the enclosing span first
		})
		var stack []trace.Event
		for _, ev := range l {
			for len(stack) > 0 && stack[len(stack)-1].End <= ev.Start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1].Kind] -= ev.Dur()
			}
			self[ev.Kind] += ev.Dur()
			stack = append(stack, ev)
		}
	}
	return self
}

// totalTimes sums span durations per kind, children included.
func totalTimes(evs []trace.Event) map[trace.Kind]time.Duration {
	tot := map[trace.Kind]time.Duration{}
	for _, ev := range evs {
		tot[ev.Kind] += ev.Dur()
	}
	return tot
}

// attachPasses maps each engine pass to the harness step whose interval
// contains the pass's root span. One client issues one call at a time, so
// containment is unambiguous. offset is the engine tracer's epoch on the
// harness clock.
func attachPasses(evs []trace.Event, steps []hspan, offset time.Duration) map[int64]int {
	out := map[int64]int{}
	for _, ev := range evs {
		if ev.Kind != trace.KindPass {
			continue
		}
		start, end := offset+time.Duration(ev.Start), offset+time.Duration(ev.End)
		i := sort.Search(len(steps), func(i int) bool { return steps[i].End >= end })
		if i < len(steps) && steps[i].Start <= start {
			out[ev.Pass] = steps[i].ID
		}
	}
	return out
}

// harnessPid is the Chrome-trace process that holds the harness spans; engine
// passes use their pass ids (small positive numbers) as pids.
const harnessPid = 1 << 30

// writeChromeTrace emits one Chrome trace: the engine's spans as
// trace.WriteChrome renders them, plus the harness spans as their own
// process with one thread per level. A step span's args list the engine
// passes (pids) that ran under it.
func writeChromeTrace(w io.Writer, d *trace.Data, spans []hspan, offset time.Duration, passStep map[int64]int) error {
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, d); err != nil {
		return err
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return fmt.Errorf("re-reading engine trace: %w", err)
	}
	add := func(ev map[string]any) error {
		b, err := json.Marshal(ev)
		f.TraceEvents = append(f.TraceEvents, b)
		return err
	}
	if err := add(map[string]any{"name": "process_name", "ph": "M", "pid": harnessPid, "tid": 0,
		"args": map[string]any{"name": "bench harness"}}); err != nil {
		return err
	}
	tids := map[string]int{"run": 0, "round": 1, "step": 2}
	for kind, tid := range tids {
		if err := add(map[string]any{"name": "thread_name", "ph": "M", "pid": harnessPid, "tid": tid,
			"args": map[string]any{"name": kind}}); err != nil {
			return err
		}
	}
	for _, sp := range spans {
		var passes []int64
		for p, id := range passStep {
			if id == sp.ID {
				passes = append(passes, p)
			}
		}
		sort.Slice(passes, func(i, j int) bool { return passes[i] < passes[j] })
		if err := add(map[string]any{
			"name": sp.Kind + " " + sp.Name, "cat": sp.Kind, "ph": "X",
			"ts": float64(sp.Start-offset) / 1e3, "dur": float64(sp.End-sp.Start) / 1e3,
			"pid": harnessPid, "tid": tids[sp.Kind],
			"args": map[string]any{"id": sp.ID, "parent": sp.Parent, "passes": passes},
		}); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(f)
}
