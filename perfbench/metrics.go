package main

import (
	"authmem"
	"authmem/client"
	"authmem/cluster"
	"authmem/internal/wire"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named metrics.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// layerSnap is every layer counter the traced run reads, summed over
// nodes. A traced phase reports after.minus(before).
type layerSnap struct {
	srv wire.ServerCounters
	eng authmem.EngineStats
	ctr authmem.CounterStats
	cli client.Stats
	clu cluster.Stats
}

func addServer(a *wire.ServerCounters, b wire.ServerCounters) {
	a.ReadOps += b.ReadOps
	a.WriteOps += b.WriteOps
	a.RootPinned += b.RootPinned
	a.BusyRejected += b.BusyRejected
	a.DeadlineRejected += b.DeadlineRejected
	a.DrainRejected += b.DrainRejected
	a.CoalescedRequests += b.CoalescedRequests
	a.AffinityDispatched += b.AffinityDispatched
	a.AffinityBypassed += b.AffinityBypassed
}

// minus returns the counter growth from before to s.
func (s layerSnap) minus(before layerSnap) layerSnap {
	var d layerSnap
	sub := func(a, b uint64) uint64 { return a - b }
	d.srv = wire.ServerCounters{
		ReadOps:            sub(s.srv.ReadOps, before.srv.ReadOps),
		WriteOps:           sub(s.srv.WriteOps, before.srv.WriteOps),
		RootPinned:         sub(s.srv.RootPinned, before.srv.RootPinned),
		BusyRejected:       sub(s.srv.BusyRejected, before.srv.BusyRejected),
		DeadlineRejected:   sub(s.srv.DeadlineRejected, before.srv.DeadlineRejected),
		DrainRejected:      sub(s.srv.DrainRejected, before.srv.DrainRejected),
		CoalescedRequests:  sub(s.srv.CoalescedRequests, before.srv.CoalescedRequests),
		AffinityDispatched: sub(s.srv.AffinityDispatched, before.srv.AffinityDispatched),
		AffinityBypassed:   sub(s.srv.AffinityBypassed, before.srv.AffinityBypassed),
	}
	e, b := s.eng, before.eng
	d.eng = authmem.EngineStats{
		Reads:               e.Reads - b.Reads,
		Writes:              e.Writes - b.Writes,
		IntegrityFailures:   e.IntegrityFailures - b.IntegrityFailures,
		GroupReencrypts:     e.GroupReencrypts - b.GroupReencrypts,
		MetaCacheHits:       e.MetaCacheHits - b.MetaCacheHits,
		MetaCacheMisses:     e.MetaCacheMisses - b.MetaCacheMisses,
		DataCacheHits:       e.DataCacheHits - b.DataCacheHits,
		DataCacheMisses:     e.DataCacheMisses - b.DataCacheMisses,
		WriteCombines:       e.WriteCombines - b.WriteCombines,
		DeferredLeafFlushes: e.DeferredLeafFlushes - b.DeferredLeafFlushes,
		LockFreeHits:        e.LockFreeHits - b.LockFreeHits,
		SeqlockRetries:      e.SeqlockRetries - b.SeqlockRetries,
		SlowPathReads:       e.SlowPathReads - b.SlowPathReads,
	}
	d.ctr = authmem.CounterStats{
		ReencryptedBlocks: s.ctr.ReencryptedBlocks - before.ctr.ReencryptedBlocks,
		Reencodes:         s.ctr.Reencodes - before.ctr.Reencodes,
		Resets:            s.ctr.Resets - before.ctr.Resets,
	}
	d.cli = client.Stats{Retries: s.cli.Retries - before.cli.Retries}
	d.clu = cluster.Stats{
		DegradedReads:  s.clu.DegradedReads - before.clu.DegradedReads,
		DegradedWrites: s.clu.DegradedWrites - before.clu.DegradedWrites,
		Unresolved:     s.clu.Unresolved - before.clu.Unresolved,
	}
	return d
}

// affinityRatio is the share of data batches (requests not absorbed by
// coalescing) dispatched to a shard-pinned worker.
func affinityRatio(d layerSnap) float64 {
	batches := d.srv.ReadOps + d.srv.WriteOps - d.srv.CoalescedRequests
	return ratio(float64(d.srv.AffinityDispatched), float64(batches))
}

// traceInputs is everything a traced run measured.
type traceInputs struct {
	untraced, traced phaseResult
	d                layerSnap
	untracedD        layerSnap // counters over the untraced phase
	b                breakdown
	cliWires         *connCounters
	srvWires         *connCounters
	kernels          kernelTimes
	wal              walResult // the WAL sub-phase (cold-mixed only)
	cluster          bool      // the nodes are a cluster (the cluster sub-run)
}

// perLayer computes every per-layer metric. A metric whose layer a
// workload does not run (no cluster, no WAL sub-phase) reads 0.
func perLayer(in traceInputs) metrics {
	m := metrics{}
	ops := float64(in.traced.attempted)
	d, b := in.d, in.b
	srvOps := float64(d.srv.ReadOps + d.srv.WriteOps)
	srvReads, srvWrites := float64(d.srv.ReadOps), float64(d.srv.WriteOps)
	us := func(ns int64, per float64) float64 { return ratio(float64(ns), per) / 1e3 }

	m.set("wire.bytes_per_op", ratio(float64(in.cliWires.bytes.Load()+in.cliWires.readBytes.Load()), ops), "B")
	m.set("wire.client_writes_per_op", ratio(float64(in.cliWires.writes.Load()), ops), "count")
	m.set("wire.server_writes_per_op", ratio(float64(in.srvWires.writes.Load()), ops), "count")
	m.set("client.retries_per_1k_ops", 1000*ratio(float64(d.cli.Retries), ops), "count")
	m.set("client.op_us", us(b.opNS, float64(b.ops)), "us")

	m.set("server.nonengine_us_per_op", us(b.opNS-b.childNS-b.rootChildNS, float64(b.ops)), "us")
	m.set("server.coalesce_ratio", ratio(float64(d.srv.CoalescedRequests), srvOps), "ratio")
	m.set("server.affinity_ratio", affinityRatio(d), "ratio")
	m.set("server.rejected_per_1k_ops", 1000*ratio(float64(d.srv.BusyRejected+d.srv.DeadlineRejected+d.srv.DrainRejected), srvOps), "count")

	m.set("engine.read_call_us_p50", quantileUS(b.readCalls, 50), "us")
	m.set("engine.read_call_us_p99", quantileUS(b.readCalls, 99), "us")
	m.set("engine.write_call_us_p50", quantileUS(b.writeCalls, 50), "us")
	m.set("engine.write_call_us_p99", quantileUS(b.writeCalls, 99), "us")
	m.set("engine.busy_us_per_op", us(b.engineNS, srvOps), "us")
	m.set("engine.covered_us_per_op", us(b.childNS, float64(b.ops)), "us")
	m.set("engine.blocks_per_call", ratio(float64(b.engineBlocks), float64(b.engineCalls)), "count")
	e := d.eng
	m.set("engine.lockfree_hit_ratio", ratio(float64(e.LockFreeHits), float64(e.Reads)), "ratio")
	m.set("engine.data_cache_hit_ratio", ratio(float64(e.DataCacheHits), float64(e.DataCacheHits+e.DataCacheMisses)), "ratio")
	m.set("engine.meta_cache_hit_ratio", ratio(float64(e.MetaCacheHits), float64(e.MetaCacheHits+e.MetaCacheMisses)), "ratio")
	m.set("engine.verified_blocks_per_read", ratio(float64(e.DataCacheMisses), srvReads), "count")
	m.set("engine.tree_walks_per_read", ratio(float64(e.MetaCacheMisses), srvReads), "count")
	m.set("engine.seqlock_retries_per_1k_reads", 1000*ratio(float64(e.SeqlockRetries), srvReads), "count")
	m.set("engine.slow_path_read_ratio", ratio(float64(e.SlowPathReads), float64(e.Reads)), "ratio")
	m.set("engine.write_combine_ratio", ratio(float64(e.WriteCombines), float64(e.Writes)), "ratio")
	m.set("engine.leaf_flushes_per_1k_writes", 1000*ratio(float64(e.DeferredLeafFlushes), srvWrites), "count")
	m.set("engine.integrity_failures", float64(e.IntegrityFailures), "count")

	m.set("ctr.reencryptions_per_1k_writes", 1000*ratio(float64(e.GroupReencrypts), srvWrites), "count")
	m.set("ctr.reencrypted_blocks_per_1k_writes", 1000*ratio(float64(d.ctr.ReencryptedBlocks), srvWrites), "count")
	m.set("ctr.reencodes_per_1k_writes", 1000*ratio(float64(d.ctr.Reencodes), srvWrites), "count")
	m.set("ctr.resets_per_1k_writes", 1000*ratio(float64(d.ctr.Resets), srvWrites), "count")

	m.set("crypto.pad_ns", in.kernels.padNS, "ns")
	m.set("crypto.mac_tag_ns", in.kernels.tagNS, "ns")
	m.set("macecc.verify_ns", in.kernels.verifyNS, "ns")
	m.set("tree.verify_leaf_ns", in.kernels.treeVerifyNS, "ns")
	m.set("tree.update_leaf_ns", in.kernels.treeUpdateNS, "ns")

	var cOps float64
	var cReads latency
	if in.cluster {
		cOps, cReads = in.untraced.steadyOpsPerSec(), summarize(in.untraced.readNS)
	}
	m.set("cluster.ops_per_s", cOps, "1/s")
	m.set("cluster.read_p50_us", cReads.P50us, "us")
	m.set("cluster.read_p99_us", cReads.P99us, "us")
	m.set("cluster.replica_ops_per_op", ratio(srvOps, ops), "count")
	m.set("cluster.root_pins_per_op", ratio(float64(d.srv.RootPinned), ops), "count")
	m.set("engine.root_digest_us_per_op", us(b.rootChildNS, float64(b.ops)), "us")
	m.set("cluster.engine_busy_us_per_op", us(b.engineNS+b.rootNS, ops), "us")
	m.set("cluster.degraded_per_1k_ops", 1000*ratio(float64(d.clu.DegradedReads+d.clu.DegradedWrites), ops), "count")
	m.set("cluster.unresolved", float64(d.clu.Unresolved), "count")

	wp := in.wal.phase
	m.set("wal.bytes_per_user_byte", ratio(in.wal.writeBytes, float64(len(wp.writeNS)*spanBytes)), "B/B")
	m.set("wal.dir_bytes_end", in.wal.dirEnd, "B")
	m.set("wal.ops_per_s", ratio(float64(wp.attempted), wp.elapsed.Seconds()), "1/s")
	m.set("wal.write_p99_us", summarize(wp.writeNS).P99us, "us")
	m.set("wal.recover_s", in.wal.recover.Secs, "s")

	m.set("trace.overhead_frac", 1-ratio(in.traced.steadyOpsPerSec(), in.untraced.steadyOpsPerSec()), "ratio")
	return m
}
