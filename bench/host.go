package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host is the fingerprint stored in every result. Two results are only
// comparable when Cores, GOMAXPROCS, GoVersion and ArrayFS agree (-compare
// refuses otherwise).
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L2KiB      int64  `json:"l2_kib"`
	L3KiB      int64  `json:"l3_kib"`
	ArrayRoot  string `json:"array_root"`
	ArrayFS    string `json:"array_fs"`
	// CacheNote says how the largest array of the run compares with the
	// reported caches.
	CacheNote string `json:"cache_note"`
}

// benchWorkers is GOMAXPROCS and the engine's worker count: min(nproc, 4).
func benchWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func hostFingerprint(workDir string, arrayBytes int64) Host {
	h := Host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L2KiB:      cacheKiB(2),
		L3KiB:      cacheKiB(3),
		ArrayRoot:  workDir,
		ArrayFS:    fsType(workDir),
	}
	llc := h.L3KiB
	if llc == 0 {
		llc = h.L2KiB
	}
	switch {
	case llc == 0:
		h.CacheNote = fmt.Sprintf("array %d MiB; cache sizes not exposed in sysfs", arrayBytes>>20)
	case llc*1024 > arrayBytes/4:
		// A guest usually sees the hypervisor's whole shared L3. Growing the
		// array to four times that would measure paging, so the size stays
		// and the caveat is recorded.
		h.CacheNote = fmt.Sprintf("array %d MiB is under 4x the reported last-level cache (%d MiB, shared by the hypervisor's other guests); rates may include cache hits", arrayBytes>>20, llc>>10)
	default:
		h.CacheNote = fmt.Sprintf("array %d MiB is at least 4x the last-level cache (%d MiB)", arrayBytes>>20, llc>>10)
	}
	return h
}

// cacheKiB reads cpu0's cache of the given level (unified or data) from
// sysfs; 0 when not exposed.
func cacheKiB(level int) int64 {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			return 0
		}
		typ, _ := os.ReadFile(dir + "type") // missing type reads as "", which is not Instruction
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			s = strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1024
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}

// fsType names the filesystem holding dir (statfs magic).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuTimes is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var ct cpuTimes
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64) // a malformed field counts as 0 ticks
		ct.total += v
		if i == 7 {
			ct.steal = v
		}
	}
	return ct
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// between two readings; it labels a noisy run.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

// Ceilings are the host's measured limits, taken in the traced run only:
// their buffers (2 × sizes.ceilBytes) would otherwise be the peak RSS of the
// external-memory workloads.
type Ceilings struct {
	MemcpyGBps float64
	FMAGflops  float64
	CRC32CGBps float64
}

var sinkFloat float64 // defeats dead-code elimination of the FMA loop

func measureCeilings(ceilingBytes int) Ceilings {
	var c Ceilings
	src := make([]byte, ceilingBytes)
	dst := make([]byte, ceilingBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // touch dst
	c.MemcpyGBps = bestRate(3, float64(ceilingBytes), func() { copy(dst, src) })
	tab := crc32.MakeTable(crc32.Castagnoli)
	var sum uint32
	c.CRC32CGBps = bestRate(3, float64(ceilingBytes), func() { sum += crc32.Checksum(src, tab) })
	sinkFloat += float64(sum)

	// Eight independent multiply-add chains: what scalar Go code can issue
	// per cycle without SIMD. 2 flops per chain step.
	const steps = 1 << 24
	c.FMAGflops = bestRate(3, 2*8*steps, func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		const m, b = 0.999999, 1e-6
		for i := 0; i < steps; i++ {
			a0 = a0*m + b
			a1 = a1*m + b
			a2 = a2*m + b
			a3 = a3*m + b
			a4 = a4*m + b
			a5 = a5*m + b
			a6 = a6*m + b
			a7 = a7*m + b
		}
		sinkFloat += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	return c
}

// bestRate runs f reps times and returns units/ns of the fastest run — GB/s
// when units are bytes, GFLOP/s when they are flops. The best of a few runs
// is the ceiling; the median would fold scheduling noise into it.
func bestRate(reps int, units float64, f func()) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return units / float64(best.Nanoseconds())
}
