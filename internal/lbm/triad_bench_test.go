package lbm

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The kernel's ceiling: a single-thread STREAM triad (a = b + 3c) is the
// bandwidth line a memory-bound sweep could at best reach. It is
// measured at two sizes: the paper lattice's own footprint, what the
// fused sweep actually streams against (on a host with a large L3 that
// is partly cache), and at four times the last-level cache, so the
// arrays must come from DRAM. The Duchateau et al. framing (arXiv
// 1510.03560): a kernel reports its traffic against that line.

// triadGBps runs passes triads over three arrays of n float64 each and
// returns the best rate, counting 24 bytes per element (two reads, one
// write; write-allocate traffic is not counted, as in STREAM).
func triadGBps(n, passes int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := 0.0
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		triad(a, b, c)
		if gbps := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	return best
}

func triad(a, b, c []float64) {
	b, c = b[:len(a)], c[:len(a)]
	for i := range a {
		a[i] = b[i] + 3*c[i]
	}
}

// paperLatticeBytes is the f64 paper lattice's footprint: 200x100x20
// cells, two components of 19 populations.
func paperLatticeBytes() int {
	k := NewKernel(WaterAir(200, 100, 20))
	return 200 * k.NComp * k.PlaneLen() * 8
}

var (
	triadMu    sync.Mutex
	triadCache = map[int]float64{}
)

// footprintTriad is the best triad rate over three arrays of bytes in
// total, measured once per size.
func footprintTriad(bytes int) float64 {
	triadMu.Lock()
	defer triadMu.Unlock()
	if _, ok := triadCache[bytes]; !ok {
		triadCache[bytes] = triadGBps(bytes/24, 5)
	}
	return triadCache[bytes]
}

// llcBytes reads the size of the highest-level CPU cache from sysfs; 0
// when it cannot.
func llcBytes() int {
	best := 0
	for idx := 0; idx < 8; idx++ {
		raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(idx) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// availableBytes is MemAvailable from /proc/meminfo; 0 when unknown.
func availableBytes() int {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "MemAvailable:" {
			kb, _ := strconv.Atoi(fields[1])
			return kb << 10
		}
	}
	return 0
}

// BenchmarkTriad reports the single-thread triad rate (GB/s) at the
// paper lattice's footprint and at 4x the last-level cache. The second
// is capped at a quarter of the available memory (and at 4x a 32 MiB
// cache when sysfs names none); the MiB metric reports the three
// arrays' total size actually used.
func BenchmarkTriad(b *testing.B) {
	llc := llcBytes()
	if llc == 0 {
		llc = 32 << 20
	}
	big := 4 * llc
	if avail := availableBytes(); avail > 0 && big > avail/4 {
		b.Logf("4 x LLC = %d MiB capped to a quarter of available memory, %d MiB", big>>20, avail>>22)
		big = avail / 4
	}
	for _, size := range []struct {
		name  string
		bytes int
	}{{"footprint", paperLatticeBytes()}, {"4xLLC", big}} {
		b.Run(size.name, func(b *testing.B) {
			n := size.bytes / 24
			a, x, y := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = 1, 2
			}
			triad(a, x, y)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				triad(a, x, y)
			}
			b.StopTimer()
			b.ReportMetric(24*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			b.ReportMetric(float64((24*n)>>20), "MiB")
		})
	}
}
