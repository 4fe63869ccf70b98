package trace

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics half of the package: a small registry of counters, gauges, and
// histograms rendered in the Prometheus text exposition format. The engine,
// the SAFS array, and the NUMA topology register their counters here so one
// `flashr-info -metrics` snapshot (or the -debug-addr HTTP endpoint) covers
// the whole stack, with MaterializeStats subsumed as counter families rather
// than duplicated by hand.

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// metricType is the TYPE line vocabulary.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// sample is one labeled series within a family.
type sample struct {
	labels []Label
	read   func() float64 // counters and gauges
	hist   *Histogram     // histograms
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	typ  metricType
	// samples from this registry, in registration order.
	samples []sample
}

// Registry holds metric families and renders consistent snapshots. A
// collection (WriteTo or Snapshot) first runs the OnCollect hooks under the
// registry lock, so a hook can cache one coherent source-struct snapshot that
// every registered reader function then consults — the mechanism that keeps
// multi-field sources (e.g. MaterializeStats) from being read torn while the
// source is concurrently updated.
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	order    []string
	hooks    []func()
	includes []include
}

// include is a child registry merged into this one at render time.
type include struct {
	reg    *Registry
	labels []Label
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help string, typ metricType, s sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("trace: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	f.samples = append(f.samples, s)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, sample{labels: labels, read: func() float64 { return float64(c.Value()) }})
	return c
}

// CounterFunc registers a counter series backed by a read function. The
// function is called under the registry lock, after the OnCollect hooks.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.register(name, help, typeCounter, sample{labels: labels, read: f})
}

// GaugeFunc registers a gauge series backed by a read function.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.register(name, help, typeGauge, sample{labels: labels, read: f})
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe. Bucket
// counts are atomics; the sum is a CAS-updated float bit pattern.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	total  atomic.Int64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("trace: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// AddHistogram registers an existing histogram as a series. Components that
// live below the registry (SAFS drives) create their histograms at
// construction and adopt them into a registry later.
func (r *Registry) AddHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(name, help, typeHistogram, sample{labels: labels, hist: h})
}

// OnCollect registers a hook run under the registry lock at the start of
// every WriteTo/Snapshot, before any series is read. Hooks cache coherent
// snapshots of multi-field sources (see Registry doc).
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, f)
}

// Include merges another registry's families into this one at render time,
// adding the given labels to every included series. Same-named families must
// have the same type.
func (r *Registry) Include(other *Registry, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.includes = append(r.includes, include{reg: other, labels: labels})
}

// renderFamily is a family plus the extra labels its registry was included
// with.
type renderFamily struct {
	fam   *family
	extra []Label
}

// collect locks the registry tree, runs all hooks, and returns the families
// in a stable merged order. The caller must call the returned release func
// when done reading series.
func (r *Registry) collect() (fams []renderFamily, release func()) {
	var locked []*Registry
	var walk func(reg *Registry, extra []Label)
	byName := map[string]int{}
	var out []renderFamily
	walk = func(reg *Registry, extra []Label) {
		reg.mu.Lock()
		locked = append(locked, reg)
		for _, h := range reg.hooks {
			h()
		}
		for _, name := range reg.order {
			f := reg.fams[name]
			if i, ok := byName[name]; ok {
				if out[i].fam.typ != f.typ {
					panic(fmt.Sprintf("trace: metric %q included as both %s and %s", name, out[i].fam.typ, f.typ))
				}
				// Merge into a synthetic family so TYPE lines stay unique.
				merged := &family{name: f.name, help: out[i].fam.help, typ: f.typ}
				prev := out[i]
				for _, s := range prev.fam.samples {
					merged.samples = append(merged.samples, sample{
						labels: append(append([]Label(nil), prev.extra...), s.labels...),
						read:   s.read, hist: s.hist,
					})
				}
				for _, s := range f.samples {
					merged.samples = append(merged.samples, sample{
						labels: append(append([]Label(nil), extra...), s.labels...),
						read:   s.read, hist: s.hist,
					})
				}
				out[i] = renderFamily{fam: merged}
				continue
			}
			byName[name] = len(out)
			out = append(out, renderFamily{fam: f, extra: extra})
		}
		for _, inc := range reg.includes {
			walk(inc.reg, append(append([]Label(nil), extra...), inc.labels...))
		}
	}
	walk(r, nil)
	return out, func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].mu.Unlock()
		}
	}
}

// renderLabels formats a label set, with optional extra le label appended.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteTo renders a consistent snapshot of the registry (and everything it
// Includes) in the Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	fams, release := r.collect()
	defer release()
	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	for _, rf := range fams {
		f := rf.fam
		if err := emit("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return n, err
		}
		for _, s := range f.samples {
			labels := append(append([]Label(nil), rf.extra...), s.labels...)
			if f.typ == typeHistogram {
				h := s.hist
				cum := int64(0)
				for i, ub := range h.bounds {
					cum += h.counts[i].Load()
					if err := emit("%s_bucket%s %d\n", f.name,
						renderLabels(labels, Label{"le", formatValue(ub)}), cum); err != nil {
						return n, err
					}
				}
				if err := emit("%s_bucket%s %d\n", f.name,
					renderLabels(labels, Label{"le", "+Inf"}), h.Count()); err != nil {
					return n, err
				}
				if err := emit("%s_sum%s %s\n%s_count%s %d\n",
					f.name, renderLabels(labels), formatValue(h.Sum()),
					f.name, renderLabels(labels), h.Count()); err != nil {
					return n, err
				}
				continue
			}
			if err := emit("%s%s %s\n", f.name, renderLabels(labels), formatValue(s.read())); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Snapshot returns every scalar series as a map keyed "name{k="v",...}"
// (labels in registered order; no braces when unlabeled). Histograms
// contribute name_sum and name_count entries.
func (r *Registry) Snapshot() map[string]float64 {
	fams, release := r.collect()
	defer release()
	out := make(map[string]float64)
	for _, rf := range fams {
		f := rf.fam
		for _, s := range f.samples {
			labels := append(append([]Label(nil), rf.extra...), s.labels...)
			key := f.name + renderLabels(labels)
			if f.typ == typeHistogram {
				out[f.name+"_sum"+renderLabels(labels)] = s.hist.Sum()
				out[f.name+"_count"+renderLabels(labels)] = float64(s.hist.Count())
				continue
			}
			out[key] = s.read()
		}
	}
	return out
}

// Handler serves the registry as a text-format metrics endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := r.WriteTo(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
