package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// procSample is a point-in-time reading of the process's resource use.
type procSample struct {
	cpuS        float64 // user + system CPU seconds (getrusage)
	gcCPUS      float64
	totalCPUS   float64 // the runtime's own CPU accounting, the base of gcCPUS
	allocs      float64
	allocBytes  float64
	heapLiveMiB float64
}

var procMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readProc() procSample {
	var ru syscall.Rusage
	var p procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	p.gcCPUS, p.totalCPUS = val(0), val(1)
	p.allocs, p.allocBytes = val(2), val(3)
	p.heapLiveMiB = val(4) / (1 << 20)
	return p
}

// sub returns the growth from an earlier sample; gauges keep their current
// value.
func (p procSample) sub(q procSample) procSample {
	return procSample{
		cpuS: p.cpuS - q.cpuS, gcCPUS: p.gcCPUS - q.gcCPUS, totalCPUS: p.totalCPUS - q.totalCPUS,
		allocs: p.allocs - q.allocs, allocBytes: p.allocBytes - q.allocBytes,
		heapLiveMiB: p.heapLiveMiB,
	}
}

// add accumulates the growth of another timed region.
func (p procSample) add(q procSample) procSample {
	return procSample{
		cpuS: p.cpuS + q.cpuS, gcCPUS: p.gcCPUS + q.gcCPUS, totalCPUS: p.totalCPUS + q.totalCPUS,
		allocs: p.allocs + q.allocs, allocBytes: p.allocBytes + q.allocBytes,
		heapLiveMiB: q.heapLiveMiB,
	}
}

// statusMiB reads a "Vm..." line of /proc/self/status, in MiB.
func statusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) >= 2 {
			kb, _ := strconv.ParseFloat(fs[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 { return statusMiB("VmHWM") }

// envelope describes the machine and build a result came from.
type envelope struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit"`
}

func readEnvelope() envelope {
	e := envelope{
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  "unknown",
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					e.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.GitCommit = s.Value
			}
		}
	}
	if e.GitCommit == "unknown" {
		e.GitCommit = gitHead()
	}
	return e
}

// gitHead reads the checked-out commit straight from .git, for builds that
// carry no VCS stamp (go run of a dirty tree); a tree that is not a git
// repository stays "unknown".
func gitHead() string {
	root := repoRoot()
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if buf, err := os.ReadFile(root + "/.git/" + strings.TrimPrefix(ref, "ref: ")); err == nil {
		return strings.TrimSpace(string(buf))
	}
	return "unknown"
}
