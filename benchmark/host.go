package main

import (
	"crypto/aes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is what a reader needs to tell a regression from a different
// or noisy machine.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// pinHost fixes the host parallelism the load model states:
// GOMAXPROCS = ClientCores = min(nproc, 4).
func pinHost() hostInfo {
	n := runtime.NumCPU()
	procs := n
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	h := hostInfo{NProc: n, GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// calibrate times a fixed single-threaded AES spin, best of three. The
// work never changes, so a run whose spin is slower after than before
// shared the machine with something else.
func calibrate() time.Duration {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	var buf [16]byte
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < 2<<20; i++ {
			block.Encrypt(buf[:], buf[:])
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// releaseMemory returns a dropped cluster's pages to the OS, so the next
// set-up (or the twin) starts from the same resident set the first did.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the benchmark contract defines a metric's spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the q-quantile of sorted values by the same
// lower-index rule fio.Run uses for its latency summary.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
