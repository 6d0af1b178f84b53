package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the machine, toolchain, commit and seed a report was
// measured with, so rows from different machines can be told apart.
type stamp struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	Seed       uint64
}

func newStamp(seed uint64) stamp {
	return stamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d",
		s.CPU, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Commit, s.Seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit asks git for the checked-out revision; a plain source
// checkout has none.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads VmHWM of this process: the high-water resident set.
// Each workload runs in a process of its own, so the mark is its own.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// totalAllocMB is the cumulative heap allocation of this process.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// settle collects the garbage of whatever ran before. Every rep starts
// with it, outside the timed region, so that the number of collector
// cycles inside a timed region does not depend on what earlier reps
// left on the heap (go test's benchmarks do the same).
func settle() { runtime.GC() }

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibrate runs a fixed integer kernel (2^24 xorshift steps, no
// memory traffic) and returns its median wall time in nanoseconds. It
// depends only on the core's integer throughput and clock, so dividing
// a timing by it normalises rows measured on different machines.
func calibrate() (ns float64, n int) {
	const runs = 5
	var walls []float64
	for i := 0; i < runs; i++ {
		t := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 1<<24; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		walls = append(walls, float64(time.Since(t).Nanoseconds()))
	}
	return median(walls), runs
}
