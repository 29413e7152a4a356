// Command perfbench is the repository's end-to-end benchmark: one
// load-generating process drives the served authenticated-memory system
// over localhost TCP in a closed loop, checks every read against a shadow
// copy, and prints every metric by name and unit. See README.md for the
// workloads and the per-layer metric map.
//
//	perfbench --workload hot-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with no instrumentation; with
// --trace 1 they are the per-layer ones, from a traced phase that follows
// an untraced one on the same region.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"authmem"
	"authmem/internal/crypto"
)

// config is one invocation's settings.
type config struct {
	w         workload
	seed      int64
	dur       time.Duration
	trace     bool
	memserved string // memserved binary (the WAL sub-phase)
	workdir   string // scratch space for WAL directories and span files
}

// outcome is what one run measured.
type outcome struct {
	tally
	metrics metrics
	detail  map[string]any
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "length of each timed phase")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		memserved = flag.String("memserved", "", "memserved binary (required for a traced cold-mixed run)")
		workdir   = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	// Measure what users run: the environment must not pick the backend
	// or the codec.
	os.Unsetenv(crypto.EnvBackend)
	os.Unsetenv("AUTHMEM_ECC_CODEC")
	runtime.GOMAXPROCS(runtime.NumCPU())

	cfg := config{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, memserved: *memserved, workdir: *workdir}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	if cfg.trace && w.wal && cfg.memserved == "" {
		fatal(fmt.Errorf("a traced %s run needs --memserved", w.name))
	}
	out, err := runInProcess(cfg)
	if err == nil && cfg.trace && w.cluster {
		err = addClusterLayer(cfg, &out)
	}
	if err != nil {
		fatal(err)
	}
	if out.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", out.firstErr)
	}
	env, err := environment(cfg)
	if err != nil {
		fatal(err)
	}
	out.detail["env"] = env
	out.detail["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	out.detail["mismatches"] = out.mismatches
	out.detail["integrity_errors"] = out.integrity
	emit(map[string]any{"detail": out.detail})
	emit(map[string]any{
		"correct":   out.correct(),
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// environment records what the numbers were measured on.
func environment(cfg config) (map[string]any, error) {
	mc := memConfig(cfg.seed)
	be, err := crypto.Lookup(mc.CryptoBackend)
	if err != nil {
		return nil, err
	}
	ov, err := authmem.ComputeOverhead(mc)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"workload":       cfg.w.name,
		"seed":           cfg.seed,
		"seconds":        cfg.dur.Seconds(),
		"crypto_backend": be.Name(),
		"ecc_codec":      ov.Codec,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"shards":         shardCount,
		"region_bytes":   regionBytes,
		"span_blocks":    spanBlocks,
		"callers":        callers,
		"conns_per_node": conns(),
	}, nil
}

// metaBytesPerDataByte is the paper's Figure 1 quantity for the served
// configuration: counter, tree and MAC storage per protected byte.
func metaBytesPerDataByte(seed int64) (float64, error) {
	ov, err := authmem.ComputeOverhead(memConfig(seed))
	if err != nil {
		return 0, err
	}
	return float64(ov.EncryptionOverheadBytes()) / float64(ov.RegionBytes), nil
}

// setups is how many times a run sets up: setup_s is the median of five;
// a traced run reports no setup_s.
func (c config) setups() int {
	if c.trace {
		return 1
	}
	return 5
}

// warmDur is the untimed load that precedes each timed phase.
const warmDur = time.Second

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(p phaseResult, setups []timing, rssMB float64, seed int64) (metrics, map[string]any, error) {
	m := metrics{}
	ws, err := windowed(p)
	if err != nil {
		return nil, nil, err
	}
	rl, wl := summarize(p.readNS), summarize(p.writeNS)
	meta, err := metaBytesPerDataByte(seed)
	if err != nil {
		return nil, nil, err
	}
	m.set("ops_per_s", median(ws.opsPerSec), "1/s")
	m.set("read_p50_us", median(ws.readP50), "us")
	m.set("read_p99_us", median(ws.readP99), "us")
	m.set("write_p50_us", median(ws.writeP50), "us")
	m.set("write_p99_us", median(ws.writeP99), "us")
	m.set("setup_s", medianClean(setups), "s")
	m.set("peak_rss_mb", rssMB, "MiB")
	m.set("meta_bytes_per_data_byte", meta, "B/B")
	detail := map[string]any{
		"read_latency":  rl,
		"write_latency": wl,
		"setup_runs":    setups,
		"timed_ops":     p.attempted,
		"window_steal":  ws.steal,
		"windows_kept":  ws.kept,
		"window_ops_s":  ws.opsPerSec,
	}
	return m, detail, nil
}

// newStreams builds each caller's op stream.
func newStreams(w workload, seed int64, ks *keySets) []*opStream {
	s := make([]*opStream, callers)
	for c := range s {
		s[c] = newOpStream(w, seed, c, ks)
	}
	return s
}
