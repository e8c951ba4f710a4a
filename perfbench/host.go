package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint printed with every result, so a number can
// always be traced to the machine and settings that produced it.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func fingerprint(name string, seed int64, workers int) host {
	return host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    workers,
		Workload:   name,
		Seed:       seed,
	}
}

// cpuModel is the "model name" line of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	v, ok := procField("/proc/cpuinfo", "model name")
	if !ok {
		return "unknown"
	}
	return v
}

// peakRSSBytes is the process's resident-set high-water mark (VmHWM).
func peakRSSBytes() int64 {
	v, ok := procField("/proc/self/status", "VmHWM")
	if !ok {
		return 0
	}
	kb, err := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}

// procField returns the value of the first "key: value" line of a
// /proc file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters.
type runtimeStats struct {
	GCCPU, TotalCPU float64 // seconds, runtime estimates
	AllocBytes      uint64
	AllocObjects    uint64
	GCCycles        uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		GCCPU:        s[0].Value.Float64(),
		TotalCPU:     s[1].Value.Float64(),
		AllocBytes:   s[2].Value.Uint64(),
		AllocObjects: s[3].Value.Uint64(),
		GCCycles:     s[4].Value.Uint64(),
	}
}

// since is the counter growth from an earlier snapshot.
func (r runtimeStats) since(before runtimeStats) runtimeStats {
	return runtimeStats{
		GCCPU:        r.GCCPU - before.GCCPU,
		TotalCPU:     r.TotalCPU - before.TotalCPU,
		AllocBytes:   r.AllocBytes - before.AllocBytes,
		AllocObjects: r.AllocObjects - before.AllocObjects,
		GCCycles:     r.GCCycles - before.GCCycles,
	}
}
