package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is the machine block of every result file.
type environment struct {
	CPUModel   string            `json:"cpu_model"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS map[string]int    `json:"gomaxprocs"` // of each workload's process
	Caches     map[string]string `json:"caches"`     // "L1d", "L2", "L3" → size as sysfs prints it
	LLCMiB     float64           `json:"llc_mib"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GitCommit  string            `json:"git_commit"`
	GitDirty   bool              `json:"git_dirty"`
	LoadStart  float64           `json:"loadavg1_start"`
	LoadEnd    float64           `json:"loadavg1_end"`
}

// workloadProcs is the GOMAXPROCS a workload process runs with: one CPU
// per closed-loop client. The four paper-size workloads have one client,
// so the workers or ranks inside their one job are time-sliced on one
// CPU and a unit's time is its total work; small_jobs has two clients
// and gets two CPUs for its two concurrent jobs. The reference box is a
// 2-vCPU guest whose vCPUs the host co-schedules only some of the time:
// two tightly coupled threads (refined_w2's two band workers exchange
// tokens every band step) then take 2.2 s or 3.2 s for the same work
// depending on the minute, a bimodal spread no bound could contain.
func workloadProcs(clients int) int { return min(clients, runtime.NumCPU()) }

func captureEnv(srcDir string) environment {
	e := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: map[string]int{},
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", GitCommit: "unknown",
		LoadStart: loadAvg1(),
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	for _, w := range workloads {
		e.GOMAXPROCS[w.Name] = workloadProcs(w.Clients)
	}
	e.Caches, e.LLCMiB = cpuCaches()
	if out, err := exec.Command("git", "-C", srcDir, "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "-C", srcDir, "status", "--porcelain").Output()
		e.GitDirty = len(strings.TrimSpace(string(st))) > 0
	}
	return e
}

// noisy reports whether the machine was already busy when the run
// began: a 1-minute load average above nproc-1 leaves the workload
// processes less than the CPUs they assume.
func (e environment) noisy() bool { return e.LoadStart > float64(e.NProc-1) }

// loadAvg1 is the 1-minute load average, -1 where /proc has none.
func loadAvg1() float64 {
	buf, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(buf))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuCaches reads cpu0's cache hierarchy from sysfs and returns the
// sizes by level name and the last-level cache in MiB (0 if unknown).
func cpuCaches() (map[string]string, float64) {
	caches := map[string]string{}
	llcLevel, llc := 0, 0.0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			buf, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(buf))
		}
		level, err := strconv.Atoi(read("level"))
		size := read("size")
		if err != nil || size == "" {
			continue
		}
		name := fmt.Sprintf("L%d", level)
		switch read("type") {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		caches[name] = size
		if mib := parseSizeMiB(size); level > llcLevel && mib > 0 {
			llcLevel, llc = level, mib
		}
	}
	return caches, llc
}

// parseSizeMiB parses sysfs cache sizes such as "4096K" or "260M".
func parseSizeMiB(s string) float64 {
	if s == "" {
		return 0
	}
	mult := 1.0 / (1 << 20)
	switch s[len(s)-1] {
	case 'K':
		mult, s = 1.0/1024, s[:len(s)-1]
	case 'M':
		mult, s = 1, s[:len(s)-1]
	case 'G':
		mult, s = 1024, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// peakRSSMiB is this process's VmHWM.
func peakRSSMiB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
