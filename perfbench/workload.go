package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Geometry of the served region: what memserved runs with no flags.
const (
	regionBytes = 64 << 20
	shardCount  = 4
	spanBlocks  = 4
	spanBytes   = spanBlocks * 64
	regionSpans = regionBytes / spanBytes
	shardSpans  = regionSpans / shardCount

	// callers is the number of closed-loop callers, each with exactly one
	// op outstanding: two per connection on a 2-CPU host, enough to keep
	// both CPUs busy while latency stays close to service time. It is
	// fixed, not derived from the CPU count, so the op stream is a
	// function of workload and seed alone.
	callers = 4

	// cacheSpanSlots is how many 4-block spans one shard's verified-block
	// cache holds (32768 direct-mapped block entries per shard).
	cacheSpanSlots = 32768 / spanBlocks

	hotSpans      = 8192  // 2 MB hot set, 2048 spans per shard
	writeSetSpans = 16384 // cold-mixed write set, 4 MB scattered
)

// keyDist selects how a caller picks a span.
type keyDist int

const (
	distHotZipf   keyDist = iota // Zipf over the caller's share of the hot set
	distUniform                  // uniform over the caller's share of the region
	distWriteZipf                // Zipf over the caller's share of the write set
)

// workload is one traffic mix.
type workload struct {
	name     string
	readFrac float64
	reads    keyDist
	writes   keyDist
	nodes    int  // in-process nodes (2 = cluster with R=2)
	wal      bool // the traced run adds the WAL sub-phase (durable.go)
	cluster  bool // the traced run adds the cluster sub-run (inproc.go)
}

var workloads = []workload{
	// Verified-block cache hits dominate, so client, wire and server
	// costs dominate. Its traced run also measures the cluster layer.
	{name: "hot-read", readFrac: 0.9, reads: distHotZipf, writes: distHotZipf, nodes: 1, cluster: true},
	// Tree verify, AES pad, MAC, MAC-in-ECC and counter-overflow
	// re-encryption dominate; reads beside writes show a change that
	// helps one at the other's cost. Its traced run also measures the WAL
	// layer through a memserved -wal child.
	{name: "cold-mixed", readFrac: 0.5, reads: distUniform, writes: distWriteZipf, nodes: 1, wal: true},
}

// clusterWorkload is hot-read's mix through two in-process nodes behind
// cluster.Cluster with R=2: quorum fan-out, root pins and replica I/O do
// the extra work, so its difference from hot-read prices the cluster tier.
// It is not a benchmark workload of its own: its tail latencies spread
// past a 25% bound between runs of the same code on a shared 2-vCPU host,
// so the traced hot-read run measures the cluster layer with it.
var clusterWorkload = workload{name: "cluster-r2", readFrac: 0.9, reads: distHotZipf, writes: distHotZipf, nodes: 2}

// subPhase is the length of each timed phase of the traced runs' cluster
// sub-run and WAL sub-phase. It is fixed, not --seconds, so their figures
// are comparable between runs of different lengths.
const subPhase = 10 * time.Second

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// subSeed derives an independent PRNG seed from the run seed and a label.
func subSeed(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int64(mix64(uint64(seed) ^ mix64(h.Sum64()^uint64(i)<<32)))
}

// fillPattern writes the content of span version ver into dst. Version 0 is
// the pre-written image; every acknowledged write bumps the version.
func fillPattern(dst []byte, seed int64, span uint64, ver uint32) {
	x := mix64(uint64(seed)) ^ span*0x9e3779b97f4a7c15 ^ uint64(ver)<<40
	for i := 0; i+8 <= len(dst); i += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// keySets are the span sets the distributions draw from, built once per run
// from the seed. Span s belongs to caller s % callers, so no two callers
// ever touch the same span and each caller's shadow copy is exact.
type keySets struct {
	hot   [callers][]uint64 // ordered by Zipf rank
	write [callers][]uint64
}

func newKeySets(seed int64) *keySets {
	ks := &keySets{}
	r := rand.New(rand.NewSource(subSeed(seed, "hot-set", 0)))
	// The hot set is scattered over all shards and over each shard's
	// address range, but no two hot spans share a verified-block cache
	// slot, so the whole set stays resident once warm.
	var hot []uint64
	perShard := hotSpans / shardCount
	for sh := 0; sh < shardCount; sh++ {
		slots := r.Perm(cacheSpanSlots)[:perShard]
		ways := shardSpans / cacheSpanSlots
		for _, slot := range slots {
			local := uint64(r.Intn(ways)*cacheSpanSlots + slot)
			hot = append(hot, uint64(sh)*shardSpans+local)
		}
	}
	r.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	for _, s := range hot {
		ks.hot[s%callers] = append(ks.hot[s%callers], s)
	}

	r = rand.New(rand.NewSource(subSeed(seed, "write-set", 0)))
	seen := make(map[uint64]bool, writeSetSpans)
	for len(seen) < writeSetSpans {
		s := uint64(r.Intn(regionSpans))
		if seen[s] {
			continue
		}
		seen[s] = true
		ks.write[s%callers] = append(ks.write[s%callers], s)
	}
	return ks
}

// op is one generated request: a 4-block read or write of one span.
type op struct {
	write bool
	span  uint64
}

// opStream is one caller's deterministic request sequence.
type opStream struct {
	w      workload
	caller int
	r      *rand.Rand
	hot    *rand.Zipf
	write  *rand.Zipf
	ks     *keySets
}

func newOpStream(w workload, seed int64, caller int, ks *keySets) *opStream {
	r := rand.New(rand.NewSource(subSeed(seed, "ops/"+w.name, caller)))
	return &opStream{
		w:      w,
		caller: caller,
		r:      r,
		hot:    rand.NewZipf(r, 1.1, 1, uint64(len(ks.hot[caller])-1)),
		write:  rand.NewZipf(r, 1.2, 1, uint64(len(ks.write[caller])-1)),
		ks:     ks,
	}
}

func (s *opStream) pick(d keyDist) uint64 {
	switch d {
	case distHotZipf:
		return s.ks.hot[s.caller][s.hot.Uint64()]
	case distWriteZipf:
		return s.ks.write[s.caller][s.write.Uint64()]
	default:
		return uint64(s.r.Intn(regionSpans/callers)*callers + s.caller)
	}
}

func (s *opStream) next() op {
	if s.r.Float64() < s.w.readFrac {
		return op{span: s.pick(s.w.reads)}
	}
	return op{write: true, span: s.pick(s.w.writes)}
}
