package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxSteal is the largest share of the host's CPU time the hypervisor may
// have taken (steal time in /proc/stat) for a window or a set-up to count
// as a measurement of the program. On a shared host, a window in which the
// virtual CPUs were not running measures the neighbours, not the program;
// tail latency is the most sensitive, since every op in flight during a
// descheduled millisecond waits it out. On two CPUs at 100 ticks/s, 1% of
// a 1 s window is two ticks.
const maxSteal = 0.01

// cpuTicks reads the host's cumulative steal and total CPU ticks from the
// first line of /proc/stat. Both are 0 where it cannot be read.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func stealShare(steal0, total0, steal1, total1 uint64) float64 {
	return ratio(float64(steal1-steal0), float64(total1-total0))
}

// stealSample is the cumulative tick count at an offset into a phase.
type stealSample struct {
	at           int64 // ns since the phase began
	steal, total uint64
}

// sampleSteal records /proc/stat every 50 ms until stop is closed, then
// sends the samples on the returned channel.
func sampleSteal(start time.Time, stop <-chan struct{}) <-chan []stealSample {
	out := make(chan []stealSample, 1)
	go func() {
		var s []stealSample
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			st, tot := cpuTicks()
			s = append(s, stealSample{at: int64(time.Since(start)), steal: st, total: tot})
			select {
			case <-stop:
				out <- s
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// stealIn is the steal share over [from, to), from the samples nearest the
// bounds.
func stealIn(s []stealSample, from, to int64) float64 {
	if len(s) < 2 {
		return 0
	}
	at := func(t int64) stealSample {
		i := sort.Search(len(s), func(i int) bool { return s[i].at > t }) - 1
		return s[max(i, 0)]
	}
	a, b := at(from), at(to)
	return stealShare(a.steal, a.total, b.steal, b.total)
}

// cleanest returns the indexes of the items whose steal share is at most
// maxSteal, or, when fewer than least are, the least items with the lowest
// steal.
func cleanest(steal []float64, least int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && steal[idx[n]] <= maxSteal {
		n++
	}
	n = min(max(n, least), len(idx))
	keep := idx[:n]
	sort.Ints(keep)
	return keep
}

// timing is one timed set-up or recovery with the steal share during it.
type timing struct {
	Secs  float64 `json:"s"`
	Steal float64 `json:"steal"`
}

// timeIt runs f and returns its wall time and steal share.
func timeIt(f func() error) (timing, error) {
	s0, t0 := cpuTicks()
	start := time.Now()
	err := f()
	el := time.Since(start).Seconds()
	s1, t1 := cpuTicks()
	return timing{Secs: el, Steal: stealShare(s0, t0, s1, t1)}, err
}

// medianClean is the median of the timings taken while the host ran the
// program (steal at most maxSteal), or of the least-stolen half when too few
// were.
func medianClean(ts []timing) float64 {
	steal := make([]float64, len(ts))
	for i, t := range ts {
		steal[i] = t.Steal
	}
	var secs []float64
	for _, i := range cleanest(steal, (len(ts)+1)/2) {
		secs = append(secs, ts[i].Secs)
	}
	return median(secs)
}
