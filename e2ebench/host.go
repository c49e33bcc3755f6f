package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host-speed diagnostic. On the shared host the benchmark was tuned
// on, an L2-resident AND+popcount loop — the kernel's instruction mix —
// switches between two speeds about 1.9x apart on sub-second to minute
// scales (NOTES.md). Each run times this fixed loop before and after its
// measured phase and reads the steal share from /proc/stat, so a reader
// can tell a slow host from a slow program. The figures are printed beside
// the metrics and never used to drop, retry, reweight or normalise a run.

const (
	refWords  = 16384 // 128 KiB of operands: L2-resident
	refPasses = 640
	refReps   = 5
)

var refSink int

// refLoop times refReps repetitions of the fixed loop, in milliseconds.
func refLoop() []float64 {
	buf := make([]uint64, refWords)
	for i := range buf {
		buf[i] = uint64(i)*0x9E3779B97F4A7C15 ^ 0xA5A5A5A5DEADBEEF
	}
	out := make([]float64, refReps)
	for r := range out {
		t := time.Now()
		s := 0
		for p := 0; p < refPasses; p++ {
			for i := 0; i+1 < len(buf); i += 2 {
				s += bits.OnesCount64(buf[i] & buf[i+1])
			}
		}
		refSink += s
		out[r] = ms(time.Since(t))
	}
	return out
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

var errNoCPULine = errors.New("no aggregate cpu line in /proc/stat")

func readCPUStat() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, v := range fields[1:] {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("parsing /proc/stat: %w", err)
			}
			// Fields: user nice system idle iowait irq softirq steal
			// guest guest_nice; guest time is already in user.
			if i < 8 {
				st.total += n
			}
			if i == 7 {
				st.steal = n
			}
		}
		return st, nil
	}
	if err := sc.Err(); err != nil {
		return cpuStat{}, err
	}
	return cpuStat{}, errNoCPULine
}

// stealFraction is the steal share of CPU ticks since start; -1 when
// /proc/stat could not be read at either end.
func stealFraction(start cpuStat, startErr error) float64 {
	end, err := readCPUStat()
	if startErr != nil || err != nil || end.total <= start.total {
		return -1
	}
	return float64(end.steal-start.steal) / float64(end.total-start.total)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
