package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"authmem/client"
)

// snapNodes reads every in-process layer counter.
func snapNodes(nodes []*memNode, cl *client.Client, tgt target) layerSnap {
	var s layerSnap
	for _, n := range nodes {
		snap := n.srv.Snapshot()
		addServer(&s.srv, snap.Server)
		s.eng.Add(snap.Engine)
		cs := n.mem.CounterStats()
		s.ctr.ReencryptedBlocks += cs.ReencryptedBlocks
		s.ctr.Reencodes += cs.Reencodes
		s.ctr.Resets += cs.Resets
	}
	if cl != nil {
		s.cli = cl.Stats()
	}
	if ct, ok := tgt.(clusterTarget); ok {
		s.clu = ct.c.Stats()
	}
	return s
}

func runInProcess(cfg config) (outcome, error) {
	var out outcome
	var nodes []*memNode
	var setups []timing
	for i := 0; i < cfg.setups(); i++ {
		if nodes != nil {
			if err := stopNodes(nodes); err != nil {
				return out, err
			}
			nodes = nil
			freeMemory()
		}
		t, err := timeIt(func() (err error) {
			nodes, err = startNodes(cfg.seed, cfg.w.nodes)
			return err
		})
		if err != nil {
			return out, err
		}
		setups = append(setups, t)
	}
	defer func() { stopNodes(nodes) }()

	tgt, _, err := connect(nodes, nil)
	if err != nil {
		return out, err
	}
	ks := newKeySets(cfg.seed)
	sh := newShadow(cfg.seed)
	streams := newStreams(cfg.w, cfg.seed, ks)
	if cfg.w.reads == distHotZipf {
		// Start the timed phase with the verified caches filled as they
		// would be in steady state.
		out.add(readBackAll(tgt, ks.hot, sh))
	}
	out.add(runPhase(tgt, streams, sh, warmDur, nil).tally)
	pre := snapNodes(nodes, nil, tgt)
	untraced := runPhase(tgt, streams, sh, cfg.dur, nil)
	out.add(untraced.tally)
	untracedD := snapNodes(nodes, nil, tgt).minus(pre)

	if !cfg.trace {
		out.add(verifyWritten(tgt, sh))
		if err := tgt.close(); err != nil {
			return out, err
		}
		m, detail, err := endToEnd(untraced, setups, peakRSSMB("self"), cfg.seed)
		if err != nil {
			return out, err
		}
		out.metrics, out.detail = m, detail
		return out, nil
	}

	// Traced phase: the same regions behind wrapped backends, listeners
	// and dialers.
	if err := tgt.close(); err != nil {
		return out, err
	}
	if err := stopNodes(nodes); err != nil {
		return out, err
	}
	rec := newRecorder(4 << 20)
	in := traceInputs{cliWires: &connCounters{}, srvWires: &connCounters{}, untracedD: untracedD, cluster: cfg.w.nodes > 1}
	for i, n := range nodes {
		if err := n.startServer(&timedBackend{inner: n.mem, rec: rec, node: uint8(i)}, in.srvWires); err != nil {
			return out, err
		}
	}
	tgt, cl, err := connect(nodes, in.cliWires)
	if err != nil {
		return out, err
	}
	rec.reset()
	in.cliWires.reset()
	in.srvWires.reset()
	before := snapNodes(nodes, cl, tgt)
	traced := runPhase(tgt, streams, sh, cfg.dur, rec)
	rec.stop()
	in.d = snapNodes(nodes, cl, tgt).minus(before)
	out.add(traced.tally)
	out.add(verifyWritten(tgt, sh))
	if err := tgt.close(); err != nil {
		return out, err
	}
	if err := stopNodes(nodes); err != nil {
		return out, err
	}
	if cfg.w.wal {
		for _, n := range nodes {
			n.mem = nil
		}
		freeMemory()
		if in.wal, err = measureWAL(cfg); err != nil {
			return out, fmt.Errorf("WAL sub-phase: %w", err)
		}
		out.add(in.wal.tally)
	}
	return finishTrace(cfg, out, in, untraced, traced, rec)
}

// finishTrace attributes spans, times the kernels and assembles the
// per-layer metrics.
func finishTrace(cfg config, out outcome, in traceInputs, untraced, traced phaseResult, rec *recorder) (outcome, error) {
	in.untraced, in.traced = untraced, traced
	engine := rec.spans()
	in.b = attribute(traced.spans, engine)
	kt, err := measureKernels(cfg.seed)
	if err != nil {
		return out, err
	}
	in.kernels = kt
	path := filepath.Join(cfg.workdir, cfg.w.name+".spans")
	if err := writeSpans(path, append(traced.spans, engine...)); err != nil {
		return out, err
	}
	out.metrics = perLayer(in)
	out.detail = map[string]any{
		"spans_file":     path,
		"client_spans":   len(traced.spans),
		"engine_spans":   len(engine),
		"dropped_spans":  rec.dropped.Load(),
		"orphan_calls":   in.b.orphans,
		"untraced_ops_s": untraced.steadyOpsPerSec(),
		"traced_ops_s":   traced.steadyOpsPerSec(),
		"kernel_backend": kt.backend,
		// The same counter over the untraced phase: tracing must not
		// change how the server dispatches.
		"untraced_affinity_ratio": affinityRatio(in.untracedD),
	}
	if cfg.w.wal {
		out.detail["wal_read_latency"] = summarize(in.wal.phase.readNS)
		out.detail["wal_write_latency"] = summarize(in.wal.phase.writeNS)
	}
	return out, nil
}

// addClusterLayer runs the cluster sub-run, a traced run of
// clusterWorkload with subPhase-long phases, and takes its cluster metrics
// into out, the outcome of a traced hot-read run.
func addClusterLayer(cfg config, out *outcome) error {
	sub := cfg
	sub.w, sub.dur = clusterWorkload, subPhase
	co, err := runInProcess(sub)
	if err != nil {
		return fmt.Errorf("cluster sub-run: %w", err)
	}
	out.add(co.tally)
	for name, m := range co.metrics {
		if strings.HasPrefix(name, "cluster.") || name == "engine.root_digest_us_per_op" {
			out.metrics[name] = m
		}
	}
	out.detail["cluster_metrics"] = co.metrics
	out.detail["cluster_detail"] = co.detail
	return nil
}
