package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"laermoe/internal/stats"
)

// tailPercentile returns the highest whole percentile with at least ten
// of n samples beyond it, capped at 99 and never below the median: 2,560
// samples give p99, 30 give p66, and fewer than 20 give p50.
func tailPercentile(n int) int {
	p := 99
	for p > 50 && n*(100-p) < 1000 {
		p--
	}
	return p
}

// latencySummary is the median and the tail of a latency sample, in ms.
type latencySummary struct {
	n         int
	p50, tail float64
	tailPct   int
}

func summarize(ms []float64) latencySummary {
	p := tailPercentile(len(ms))
	return latencySummary{
		n:       len(ms),
		p50:     stats.Percentile(ms, 50),
		tail:    stats.Percentile(ms, float64(p)),
		tailPct: p,
	}
}

func (s latencySummary) String() string {
	return fmt.Sprintf("p50 %.3fms p%d %.3fms (%d samples, %d beyond the tail)",
		s.p50, s.tailPct, s.tail, s.n, s.n*(100-s.tailPct)/100)
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux platform Go supports).
const clockTicks = 100

// procCPU returns the user+sys CPU time a process has consumed.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces: fields are
	// counted from the closing parenthesis (field 3 is the state).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns a process's peak resident set (VmHWM) in MiB; pid is
// a number or "self".
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// stealMeter reads the host's CPU steal share from /proc/stat: on a
// shared host, stolen time inflates every latency without any code
// change, so each phase reports it as a validity diagnostic.
type stealMeter struct{ steal, total uint64 }

func readSteal() stealMeter {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var m stealMeter
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			m.total += n
		}
		if i == 7 {
			m.steal = n
		}
	}
	return m
}

// since returns the steal share of the CPU time elapsed since m was read.
func (m stealMeter) since() float64 {
	now := readSteal()
	if now.total <= m.total {
		return 0
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total)
}
