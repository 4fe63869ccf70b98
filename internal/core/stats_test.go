package core

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestStatCountersCoverEveryField checks the statCounters descriptor against
// MaterializeStats itself: every int64 and time.Duration field is declared
// exactly once, as seconds exactly when it is a Duration, and every metric
// family name is unique.
func TestStatCountersCoverEveryField(t *testing.T) {
	var s MaterializeStats
	sv := reflect.ValueOf(&s).Elem()
	byAddr := map[uintptr]string{}
	durations := map[string]bool{}
	durType := reflect.TypeOf(time.Duration(0))
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		byAddr[sv.Field(i).Addr().Pointer()] = f.Name
		durations[f.Name] = f.Type == durType
	}
	seen := map[string]int{}
	names := map[string]bool{}
	for _, c := range statCounters {
		field, ok := byAddr[reflect.ValueOf(c.field(&s)).Pointer()]
		if !ok {
			t.Fatalf("%s reaches no int64 or Duration field of MaterializeStats", c.name)
		}
		seen[field]++
		if c.seconds != durations[field] {
			t.Errorf("%s: seconds=%v but field %s is a Duration: %v", c.name, c.seconds, field, durations[field])
		}
		if names[c.name] {
			t.Errorf("metric family %s declared twice", c.name)
		}
		names[c.name] = true
		if !strings.HasPrefix(c.name, "flashr_materialize_") || !strings.HasSuffix(c.name, "_total") {
			t.Errorf("metric family %s breaks the flashr_materialize_*_total naming", c.name)
		}
		if c.seconds != strings.HasSuffix(c.name, "_seconds_total") {
			t.Errorf("metric family %s: unit suffix disagrees with seconds=%v", c.name, c.seconds)
		}
	}
	for field := range durations {
		if seen[field] != 1 {
			t.Errorf("field %s is declared %d times in statCounters, want 1", field, seen[field])
		}
	}
}

// TestStatsAddSubRoundTrip fills every counter with a distinct value and
// checks that Add sums each one and Sub undoes Add.
func TestStatsAddSubRoundTrip(t *testing.T) {
	var a, b MaterializeStats
	for i, c := range statCounters {
		*c.field(&a) = int64(1000 + 7*i)
		*c.field(&b) = int64(3 + 11*i)
	}
	a.Owner, a.Fuse = "a", FuseCache
	b.Owner, b.Batch, b.Fuse = "b", "batch-1", FuseNone
	sum := a
	sum.Add(b)
	for i, c := range statCounters {
		if got, want := *c.field(&sum), int64(1003+18*i); got != want {
			t.Errorf("%s: Add gave %d, want %d", c.name, got, want)
		}
	}
	if sum.Owner != "b" || sum.Batch != "batch-1" || sum.Fuse != FuseNone {
		t.Errorf("Add did not take o's labels: %+v", sum)
	}
	d := sum.Sub(b)
	for _, c := range statCounters {
		if got, want := *c.field(&d), *c.field(&a); got != want {
			t.Errorf("%s: (a+b)-b = %d, want %d", c.name, got, want)
		}
	}
	if d.Fuse != sum.Fuse || d.Owner != sum.Owner {
		t.Errorf("Sub must keep s's labels: %+v", d)
	}
}
