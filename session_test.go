package flashr

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/safs"
)

// TestShardingWithEMRejectedBeforeArray checks that the Sharding/EM conflict
// is reported before NewSession touches the drive directories.
func TestShardingWithEMRejectedBeforeArray(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "ssd-00"), filepath.Join(root, "ssd-01")}
	s, err := NewSession(Options{EM: true, SSDDirs: dirs, Sharding: &ShardConfig{Shards: 2}})
	if err == nil {
		s.Close()
		t.Fatal("NewSession accepted Sharding with EM")
	}
	if _, err := os.Stat(dirs[0]); !os.IsNotExist(err) {
		t.Fatalf("rejected session still created %s (stat err %v)", dirs[0], err)
	}
}

// TestOptionsReachEngine sets every Options field to a non-default value and
// checks it arrives where NewSession's hand-written copy should put it: the
// engine's Config, the SSD array, the coordinator, or the session owner.
func TestOptionsReachEngine(t *testing.T) {
	const mib = 1 << 20
	em := Options{
		Workers: 3, Fuse: FuseMem, EM: true, SSDDirs: []string{filepath.Join(t.TempDir(), "d0")},
		ReadMBps: 1, WriteMBps: 1, PartRows: 512, PcacheBytes: 4096,
		SyncWrites: true, WriteBehindDepth: 7, DisableVerify: true, DisableCSE: true,
		ResultCacheBytes: mib, DisableRewrites: true, Owner: "alice", MaxConcurrentPasses: 3,
	}
	sharded := Options{Sharding: &ShardConfig{Shards: 3}}
	// A field added to Options must be exercised here too.
	ve, vs := reflect.ValueOf(em), reflect.ValueOf(sharded)
	for i := 0; i < ve.NumField(); i++ {
		if ve.Field(i).IsZero() && vs.Field(i).IsZero() {
			t.Errorf("Options.%s is not exercised", ve.Type().Field(i).Name)
		}
	}

	s, err := newSession(em, func(c *core.Config) { c.DisableRewriteDCE = true })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.Engine().Config()
	want := core.Config{
		Workers: 3, Fuse: FuseMem, EM: true, PartRows: 512, PcacheBytes: 4096,
		SyncWrites: true, WriteBehindDepth: 7, DisableCSE: true, ResultCacheBytes: mib,
		DisableRewrites: true, MaxConcurrentPasses: 3, DisableRewriteDCE: true,
		// Filled in by the engine, not by Options.
		Topo: got.Topo, FS: got.FS, SuperParts: got.SuperParts,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine config\n got %+v\nwant %+v", got, want)
	}
	if s.Owner() != "alice" {
		t.Fatalf("owner %q", s.Owner())
	}
	fs := s.FS()
	if fs == nil || got.FS != fs || fs.NumDrives() != 1 {
		t.Fatalf("SSD array not wired: FS %p, engine FS %p", fs, got.FS)
	}
	// ReadMBps/WriteMBps: 128 KiB at 1 MiB/s takes ~125 ms each way.
	f, err := fs.Create("probe", 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128<<10)
	t0 := time.Now()
	if err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Fatalf("WriteMBps not applied: 128 KiB written in %v", d)
	}
	// DisableVerify: a read whose every attempt flips a bit succeeds without
	// a single checksum failure only when verification is off.
	fs.InjectFaults(&safs.Faults{Seed: 1, FlipBitRate: 1})
	t0 = time.Now()
	if err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read with verification off: %v", err)
	}
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Fatalf("ReadMBps not applied: 128 KiB read in %v", d)
	}
	if n := fs.Stats().ChecksumFailures; n != 0 {
		t.Fatalf("DisableVerify not applied: %d checksum failures", n)
	}

	sh, err := NewSession(sharded)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if c := sh.Coordinator(); c == nil || c.Shards() != 3 {
		t.Fatalf("Sharding not applied: coordinator %v", c)
	}
}

// TestShare checks that a shared session runs on its parent's engine and
// array under its own owner and weight, and that closing it leaves the
// parent's array open.
func TestShare(t *testing.T) {
	parent, err := NewSession(Options{Workers: 2, PartRows: 256, EM: true, SSDDirs: safs.DriveDirs(t.TempDir(), 2), Owner: "root"})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	bob := parent.Share("bob", 2)
	if bob.Engine() != parent.Engine() || bob.FS() != parent.FS() {
		t.Fatal("shared session built its own engine or array")
	}
	if bob.Owner() != "bob" || bob.weight != 2 {
		t.Fatalf("owner %q weight %d", bob.Owner(), bob.weight)
	}
	x, err := bob.Runif(1000, 2, 0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sum(x).Float(); err != nil {
		t.Fatal(err)
	}
	if o := bob.LastMaterializeStats().Owner; o != "bob" {
		t.Fatalf("pass owner %q, want bob", o)
	}
	if err := bob.Close(); err != nil {
		t.Fatal(err)
	}
	// The parent's array must still serve I/O after the child closes.
	y, err := parent.GenerateSeeded(1000, 2, 9, func(rng *rand.Rand, row []float64) { row[0] = rng.Float64() })
	if err != nil {
		t.Fatalf("parent array unusable after closing the shared session: %v", err)
	}
	if _, err := Sum(y).Float(); err != nil {
		t.Fatalf("parent array unusable after closing the shared session: %v", err)
	}
	if o := parent.LastMaterializeStats().Owner; o != "root" {
		t.Fatalf("pass owner %q, want root", o)
	}
}
