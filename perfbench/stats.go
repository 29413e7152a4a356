package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentiles are the candidates summarize reports as its tail.
var percentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// latency is the summary of one set of per-op latencies.
type latency struct {
	Count  int     `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	TopPct float64 `json:"top_pct"` // highest percentile with >= 10 samples beyond it
	TopUs  float64 `json:"top_us"`
}

// pctIndex is the nearest-rank index of percentile p in n sorted samples.
// The epsilon keeps float error in p/100*n from skipping a rank.
func pctIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// beyond is the number of samples strictly above percentile p's rank.
func beyond(n int, p float64) int { return n - 1 - pctIndex(n, p) }

// topPercentile is the highest candidate percentile with at least ten
// samples beyond it, or 0 when even the median has fewer.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentiles {
		if n > 0 && beyond(n, p) >= 10 {
			top = p
		}
	}
	return top
}

// summarize sorts ns in place and reports median, p99 and the top
// percentile it can support, in microseconds.
func summarize(ns []int64) latency {
	l := latency{Count: len(ns)}
	if len(ns) == 0 {
		return l
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(p float64) float64 { return float64(ns[pctIndex(len(ns), p)]) / 1e3 }
	l.P50us = at(50)
	l.P99us = at(99)
	if l.TopPct = topPercentile(len(ns)); l.TopPct > 0 {
		l.TopUs = at(l.TopPct)
	}
	return l
}

// quantileUS is percentile p of ns (sorted in place), in microseconds.
func quantileUS(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(ns[pctIndex(len(ns), p)]) / 1e3
}

// windowStats is a timed phase cut into equal windows by op completion
// time: each window's op rate and latency percentiles. The end-to-end
// figures are the medians over windows, so a burst of interference from
// outside the benchmark moves one window, not the result.
type windowStats struct {
	opsPerSec, readP50, readP99, writeP50, writeP99 []float64
	steal                                           []float64 // per window
	kept                                            int
}

// minWindowSamples is the fewest reads or writes a window may hold: p99
// needs at least ten samples beyond it.
const minWindowSamples = 1000

// windowed cuts p into one window per whole second of its planned length,
// or fewer when a window would hold too few reads or writes for its p99.
// Only windows in which the hypervisor took at most maxSteal of the host's
// CPU time count, or the least-stolen quarter when too few did.
func windowed(p phaseResult) (windowStats, error) {
	var ws windowStats
	k := min(int(p.dur/time.Second), len(p.readNS)/minWindowSamples, len(p.writeNS)/minWindowSamples)
	if k < 1 {
		return ws, fmt.Errorf("too few samples for a p99: %d reads, %d writes", len(p.readNS), len(p.writeNS))
	}
	width := int64(p.dur) / int64(k)
	bucket := func(ns, at []int64) [][]int64 {
		b := make([][]int64, k)
		for i, t := range at {
			if w := int(t / width); w < k {
				b[w] = append(b[w], ns[i])
			}
		}
		return b
	}
	rb, wb := bucket(p.readNS, p.readAt), bucket(p.writeNS, p.writeAt)
	for w := 0; w < k; w++ {
		ws.steal = append(ws.steal, stealIn(p.steal, int64(w)*width, int64(w+1)*width))
	}
	keep := cleanest(ws.steal, max(3, k/4))
	ws.kept = len(keep)
	for _, w := range keep {
		ws.opsPerSec = append(ws.opsPerSec, float64(len(rb[w])+len(wb[w]))/time.Duration(width).Seconds())
		if len(rb[w]) < minWindowSamples || len(wb[w]) < minWindowSamples {
			continue // a stalled window cannot support a p99
		}
		ws.readP50 = append(ws.readP50, quantileUS(rb[w], 50))
		ws.readP99 = append(ws.readP99, quantileUS(rb[w], 99))
		ws.writeP50 = append(ws.writeP50, quantileUS(wb[w], 50))
		ws.writeP99 = append(ws.writeP99, quantileUS(wb[w], 99))
	}
	if len(ws.readP99) == 0 {
		return ws, fmt.Errorf("no window held %d reads and writes", minWindowSamples)
	}
	return ws, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procField reads the number that follows key in /proc/<pid>/<file>
// (a "key: value [unit]" line), or 0 when it cannot be read.
func procField(pid, file, key string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/" + file)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			v, _ := strconv.ParseFloat(f[0], 64)
			return v
		}
	}
	return 0
}

// peakRSSMB is a process's high-water resident set (VmHWM), in MiB.
func peakRSSMB(pid string) float64 { return procField(pid, "status", "VmHWM") / 1024 }
