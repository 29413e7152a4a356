package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestOpStreamIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	ops := func(w workload, seed int64) []op {
		ks := newKeySets(seed)
		var out []op
		for c := 0; c < callers; c++ {
			s := newOpStream(w, seed, c, ks)
			for i := 0; i < 500; i++ {
				out = append(out, s.next())
			}
		}
		return out
	}
	same := func(a, b []op) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, w := range append(workloads, clusterWorkload, walWorkload) {
		a, b, c := ops(w, 7), ops(w, 7), ops(w, 8)
		if !same(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", w.name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
		for _, o := range a {
			if o.span >= regionSpans {
				t.Fatalf("%s: span %d outside the region", w.name, o.span)
			}
		}
	}
}

func TestKeySetsAreDisjointPerCallerAndHotSetIsConflictFree(t *testing.T) {
	ks := newKeySets(3)
	slots := map[[2]uint64]bool{}
	n := 0
	for c := 0; c < callers; c++ {
		for _, s := range ks.hot[c] {
			if s%callers != uint64(c) {
				t.Fatalf("hot span %d given to caller %d", s, c)
			}
			key := [2]uint64{s / shardSpans, s % cacheSpanSlots}
			if slots[key] {
				t.Fatalf("hot span %d shares a verified-block cache slot", s)
			}
			slots[key] = true
			n++
		}
		for _, s := range ks.write[c] {
			if s%callers != uint64(c) {
				t.Fatalf("write span %d given to caller %d", s, c)
			}
		}
	}
	if n != hotSpans {
		t.Fatalf("hot set has %d spans, want %d", n, hotSpans)
	}
}

func TestTopPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.999},
	} {
		if got := topPercentile(tc.n); got != tc.want {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.want > 0 && beyond(tc.n, tc.want) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, tc.want), tc.want)
		}
	}
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000 - i) // 1..1000 ns, reversed
	}
	l := summarize(ns)
	if l.Count != 1000 || l.TopPct != 99 || l.TopUs != 0.99 || l.P50us != 0.5 {
		t.Fatalf("summarize = %+v, want count 1000, p50 0.5us, top p99 = 0.99us", l)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	parent := span{start: 100, end: 200, addr: 0, n: spanBytes}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one", []span{{start: 110, end: 130}}, 80},
		{"overlapping", []span{{start: 110, end: 130}, {start: 120, end: 140}, {start: 160, end: 170}}, 60},
		{"nested", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"clipped", []span{{start: 50, end: 120}, {start: 190, end: 250}}, 70},
		{"whole", []span{{start: 100, end: 200}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAttributeParentsByRangeAndInterval(t *testing.T) {
	clients := []span{
		{start: 0, end: 100, addr: 0, n: spanBytes, kind: kindClientRead},
		{start: 0, end: 100, addr: spanBytes, n: spanBytes, kind: kindClientWrite},
	}
	engine := []span{
		{start: 10, end: 30, addr: 0, n: spanBytes, kind: kindEngineRead},                   // child of op 0
		{start: 40, end: 50, addr: spanBytes, n: spanBytes, kind: kindEngineWrite},          // child of op 1
		{start: 40, end: 60, addr: spanBytes, n: spanBytes, kind: kindEngineWrite, node: 1}, // replica, op 1
		{start: 30, end: 35, kind: kindEngineRoot},                                          // op 0's pin, inside op 1 too
		{start: 50, end: 55, kind: kindEngineRoot},                                          // op 1's pin, under its replica call
		{start: 60, end: 70, kind: kindEngineRoot, node: 1},                                 // op 1's replica pin
		{start: 150, end: 160, kind: kindEngineRoot},                                        // no op covers it
		{start: 90, end: 120, addr: 0, n: spanBytes, kind: kindEngineRead},                  // outlives op 0
		{start: 10, end: 20, addr: 0, n: 2 * spanBytes, kind: kindEngineRead},               // coalesced
	}
	b := attribute(clients, engine)
	if b.ops != 2 || b.opNS != 200 {
		t.Fatalf("ops %d, op time %d", b.ops, b.opNS)
	}
	if b.childNS != 20+20 {
		t.Fatalf("child time %d, want 40", b.childNS)
	}
	// Each pin is subtracted once, from its own op, and only where no
	// data call already covers the op.
	if b.rootChildNS != 5+10 {
		t.Fatalf("root-pin child time %d, want 15", b.rootChildNS)
	}
	if b.rootNS != 30 || b.orphans != 3 || b.engineCalls != 5 {
		t.Fatalf("root %d, orphans %d, calls %d", b.rootNS, b.orphans, b.engineCalls)
	}
}

func TestShadowNeverReusesAVersionAfterAFailedWrite(t *testing.T) {
	sh := newShadow(9)
	const s = 4
	pre := make([]byte, spanBytes)
	fillPattern(pre, sh.seed, s, 0)
	scratch := make([]byte, spanBytes)

	v := sh.nextVer(s)
	sh.wrote(s, v, errors.New("connection reset"))
	if !sh.check(s, pre, scratch) {
		t.Fatal("a span whose last write failed must not be compared")
	}
	if got := sh.writtenSpans()[s%callers]; len(got) != 0 {
		t.Fatalf("failed write listed for read-back: %v", got)
	}
	v2 := sh.nextVer(s)
	if v2 == 0 || v2 == v {
		t.Fatalf("write after a failed one carries version %d (failed one %d)", v2, v)
	}
	sh.wrote(s, v2, nil)
	if sh.check(s, pre, scratch) {
		t.Fatal("pre-write bytes pass as an acknowledged write: a lost write would go unseen")
	}
	want := make([]byte, spanBytes)
	fillPattern(want, sh.seed, s, v2)
	if !sh.check(s, want, scratch) {
		t.Fatal("acknowledged write does not match")
	}
	if got := sh.writtenSpans()[s%callers]; len(got) != 1 || got[0] != s {
		t.Fatalf("acknowledged write missing from read-back: %v", got)
	}
}

// tracedRun runs a short traced run of one workload as main does, with a
// memserved binary built for the WAL sub-phase when the workload has one.
func tracedRun(t *testing.T, name string) outcome {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a 64 MB region")
	}
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{w: w, seed: 5, dur: 2 * time.Second, trace: true, workdir: t.TempDir()}
	if w.wal {
		cfg.memserved = filepath.Join(t.TempDir(), "memserved")
		if b, err := exec.Command("go", "build", "-o", cfg.memserved, "authmem/cmd/memserved").CombinedOutput(); err != nil {
			t.Fatalf("build memserved: %v\n%s", err, b)
		}
	}
	out, err := runInProcess(cfg)
	if err == nil && w.cluster {
		err = addClusterLayer(cfg, &out)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct() || out.failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d: %v", name, out.correct(), out.failed, out.firstErr)
	}
	return out
}

// TestWorkloadsExerciseTheirLayers pins what each workload is for: if a
// change makes one stop exercising its layer, this fails.
func TestWorkloadsExerciseTheirLayers(t *testing.T) {
	hot := tracedRun(t, "hot-read")
	if r := hot.metrics["engine.data_cache_hit_ratio"].Value; r < 0.9 {
		t.Errorf("hot-read: data cache hit ratio %.3f, want >= 0.9", r)
	}
	cold := tracedRun(t, "cold-mixed")
	if r := cold.metrics["engine.data_cache_hit_ratio"].Value; r > 0.2 {
		t.Errorf("cold-mixed: data cache hit ratio %.3f, want <= 0.2", r)
	}
	if r := cold.metrics["ctr.reencryptions_per_1k_writes"].Value; r <= 0 {
		t.Errorf("cold-mixed: no counter-overflow re-encryptions")
	}
	for _, name := range []string{"wal.bytes_per_user_byte", "wal.dir_bytes_end", "wal.recover_s"} {
		if v := cold.metrics[name].Value; v <= 0 {
			t.Errorf("cold-mixed: %s = %v, want > 0 from the WAL sub-phase", name, v)
		}
	}
	if v := hot.metrics["wal.bytes_per_user_byte"].Value; v != 0 {
		t.Errorf("hot-read: wal.bytes_per_user_byte = %v, want 0 (no WAL sub-phase)", v)
	}
	// The cluster sub-run of the traced hot-read run: every op reaches two
	// replicas and pins roots.
	for _, name := range []string{"cluster.ops_per_s", "cluster.root_pins_per_op", "engine.root_digest_us_per_op"} {
		if v := hot.metrics[name].Value; v <= 0 {
			t.Errorf("hot-read: %s = %v, want > 0 from the cluster sub-run", name, v)
		}
	}
	if v := hot.metrics["cluster.replica_ops_per_op"].Value; v <= 1 {
		t.Errorf("hot-read: cluster.replica_ops_per_op = %v, want > 1 with R=2", v)
	}
	if v := cold.metrics["cluster.replica_ops_per_op"].Value; v != 1 {
		t.Errorf("cold-mixed: cluster.replica_ops_per_op = %v, want 1 (one node, no sub-run)", v)
	}
}

// TestTracedRunKeepsShardAffinity checks that the timing wrapper forwards
// server.ShardRouter: without it the traced server would silently stop
// dispatching by shard and measure a different program.
func TestTracedRunKeepsShardAffinity(t *testing.T) {
	out := tracedRun(t, "hot-read")
	traced := out.metrics["server.affinity_ratio"].Value
	untraced := out.detail["untraced_affinity_ratio"].(float64)
	if traced <= 0 || traced != untraced {
		t.Fatalf("affinity ratio traced %v, untraced %v: want equal and > 0", traced, untraced)
	}
}

func TestCleanestKeepsUnstolenOrLeastStolen(t *testing.T) {
	steal := []float64{0.005, 0.3, 0, 0.2, 0.01, 0.5}
	if got := cleanest(steal, 2); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("cleanest = %v, want [0 2 4]", got)
	}
	if got := cleanest([]float64{0.3, 0.2, 0.9, 0.1}, 2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("cleanest = %v, want the two least stolen [1 3]", got)
	}
	ts := []timing{{Secs: 1, Steal: 0.5}, {Secs: 2, Steal: 0}, {Secs: 9, Steal: 0.6}}
	if got := medianClean(ts); got != 1.5 {
		t.Fatalf("medianClean = %v, want 1.5 (the least-stolen two)", got)
	}
	samples := []stealSample{{at: 0, steal: 0, total: 0}, {at: 10, steal: 5, total: 100}, {at: 20, steal: 5, total: 200}}
	if got := stealIn(samples, 0, 10); got != 0.05 {
		t.Fatalf("stealIn = %v, want 0.05", got)
	}
	if got := stealIn(samples, 10, 20); got != 0 {
		t.Fatalf("stealIn = %v, want 0", got)
	}
}
