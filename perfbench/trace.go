package main

import (
	"encoding/binary"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"authmem"
	"authmem/internal/server"
)

// Span kinds. Client ops are recorded by the load generator around each
// call; engine calls by timedBackend around each server.Backend call.
const (
	kindClientRead uint8 = iota
	kindClientWrite
	kindEngineRead  // ReadBlocks, Read, ReadRecover
	kindEngineWrite // WriteBlocks, Write
	kindEngineRoot  // RootDigest (forced by root pins)
	kindEngineOther // FlushAll, Stats
)

// span is one timed call. start/end are nanoseconds since the recorder's
// epoch; addr/n is the byte range the call covers (n = 0 for calls that
// cover no range).
type span struct {
	start, end int64
	addr       uint64
	n          uint32
	kind       uint8
	node       uint8
}

func (s span) dur() int64 { return s.end - s.start }

// covers reports whether s contains c's byte range and its interval.
func (s span) covers(c span) bool {
	return c.n > 0 && c.addr >= s.addr && c.addr+uint64(c.n) <= s.addr+uint64(s.n) &&
		c.start >= s.start && c.end <= s.end
}

// selfTime is s's duration minus the part of its interval covered by the
// union of the children's intervals (clipped to s).
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return s.dur() - covered
}

// recorder keeps spans in memory until the run ends. Engine spans arrive
// from server goroutines and share one locked buffer; client spans are
// appended by each caller to its own buffer and merged at the end.
type recorder struct {
	epoch time.Time
	limit int

	mu      sync.Mutex
	engine  []span
	dropped atomic.Uint64
	stopped atomic.Bool
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, engine: make([]span, 0, min(limit, 1<<18))}
}

// reset drops every recorded span.
func (r *recorder) reset() {
	r.mu.Lock()
	r.engine = r.engine[:0]
	r.mu.Unlock()
	r.dropped.Store(0)
}

// spans returns the recorded engine spans. Call it once the traced
// servers have stopped.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// stop ends recording: later engine calls (read-backs after the traced
// phase) are not part of the trace.
func (r *recorder) stop() { r.stopped.Store(true) }

func (r *recorder) add(s span) {
	if r.stopped.Load() {
		return
	}
	r.mu.Lock()
	if len(r.engine) < r.limit {
		r.engine = append(r.engine, s)
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// writeSpans writes spans as fixed-size little-endian records
// (start, end, addr, n, kind, node) to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<16)
	for _, s := range spans {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.end))
		buf = binary.LittleEndian.AppendUint64(buf, s.addr)
		buf = binary.LittleEndian.AppendUint32(buf, s.n)
		buf = append(buf, s.kind, s.node)
		if len(buf) > 1<<16-64 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// backend is the server.Backend surface plus shard routing, which
// authmem.ShardedMemory provides.
type backend interface {
	server.Backend
	server.ShardRouter
}

// timedBackend is a timing decorator around a served backend: every call
// into the engine becomes a span. It forwards server.ShardRouter too, so the
// traced server keeps shard-affinity dispatch.
type timedBackend struct {
	inner backend
	rec   *recorder
	node  uint8
}

var _ backend = (*timedBackend)(nil)

func (b *timedBackend) rangeSpan(kind uint8, addr uint64, n int, start int64) {
	b.rec.add(span{start: start, end: b.rec.now(), addr: addr, n: uint32(n), kind: kind, node: b.node})
}

func (b *timedBackend) Read(addr uint64, dst []byte) (authmem.ReadInfo, error) {
	t := b.rec.now()
	ri, err := b.inner.Read(addr, dst)
	b.rangeSpan(kindEngineRead, addr, len(dst), t)
	return ri, err
}

func (b *timedBackend) ReadRecover(addr uint64, dst []byte) (authmem.RecoverInfo, error) {
	t := b.rec.now()
	ri, err := b.inner.ReadRecover(addr, dst)
	b.rangeSpan(kindEngineRead, addr, len(dst), t)
	return ri, err
}

func (b *timedBackend) Write(addr uint64, block []byte) error {
	t := b.rec.now()
	err := b.inner.Write(addr, block)
	b.rangeSpan(kindEngineWrite, addr, len(block), t)
	return err
}

func (b *timedBackend) ReadBlocks(addr uint64, dst []byte) error {
	t := b.rec.now()
	err := b.inner.ReadBlocks(addr, dst)
	b.rangeSpan(kindEngineRead, addr, len(dst), t)
	return err
}

func (b *timedBackend) WriteBlocks(addr uint64, src []byte) error {
	t := b.rec.now()
	err := b.inner.WriteBlocks(addr, src)
	b.rangeSpan(kindEngineWrite, addr, len(src), t)
	return err
}

func (b *timedBackend) FlushAll() error {
	t := b.rec.now()
	err := b.inner.FlushAll()
	b.rangeSpan(kindEngineOther, 0, 0, t)
	return err
}

func (b *timedBackend) Stats() authmem.EngineStats {
	t := b.rec.now()
	st := b.inner.Stats()
	b.rangeSpan(kindEngineOther, 0, 0, t)
	return st
}

func (b *timedBackend) RootDigest() authmem.RootDigest {
	t := b.rec.now()
	d := b.inner.RootDigest()
	b.rangeSpan(kindEngineRoot, 0, 0, t)
	return d
}

func (b *timedBackend) Size() uint64            { return b.inner.Size() }
func (b *timedBackend) Shards() int             { return b.inner.Shards() }
func (b *timedBackend) ShardOf(addr uint64) int { return b.inner.ShardOf(addr) }

// connCounters tallies socket traffic on one side of the wire.
type connCounters struct {
	writes, bytes atomic.Uint64 // Write calls and the bytes they sent
	readBytes     atomic.Uint64 // bytes received
}

func (c *connCounters) reset() {
	c.writes.Store(0)
	c.bytes.Store(0)
	c.readBytes.Store(0)
}

// countingConn counts the Write calls and bytes one endpoint puts on the
// wire, and the bytes it takes off.
type countingConn struct {
	net.Conn
	ctr *connCounters
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.ctr.writes.Add(1)
	c.ctr.bytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ctr.readBytes.Add(uint64(n))
	return n, err
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	ctr *connCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, ctr: l.ctr}, nil
}

// countingDial wraps a dial function so its connections are counted.
func countingDial(dial func() (net.Conn, error), ctr *connCounters) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, ctr: ctr}, nil
	}
}

// breakdown attributes each client op's time to its engine-call children.
type breakdown struct {
	ops          int
	opNS         int64 // sum of client-op durations
	childNS      int64 // op time covered by engine data calls
	rootChildNS  int64 // op time covered by root pins and not by data calls
	rootNS       int64 // sum of RootDigest call time (root pins)
	engineNS     int64 // sum of all engine data-call durations
	engineCalls  int
	engineBlocks uint64
	readCalls    []int64 // per-call durations, ns
	writeCalls   []int64
	orphans      int // engine data calls and root pins with no parent op
}

// dataLink is an engine data call that has a parent op.
type dataLink struct {
	end    int64
	parent int
}

// attribute makes each client-op span the parent of every engine-call span
// whose address range and interval it covers, and of the root pins its
// requests forced, and sums self and child time.
func attribute(clients, engine []span) breakdown {
	var b breakdown
	byAddr := make(map[uint64][]int, len(clients))
	for i, c := range clients {
		key := c.addr / spanBytes
		byAddr[key] = append(byAddr[key], i)
	}
	for _, idx := range byAddr {
		sort.Slice(idx, func(a, b int) bool { return clients[idx[a]].start < clients[idx[b]].start })
	}
	children := make([][]span, len(clients))
	links := map[uint8][]dataLink{} // by node
	var roots []span
	for _, e := range engine {
		switch e.kind {
		case kindEngineRoot:
			b.rootNS += e.dur()
			roots = append(roots, e)
			continue
		case kindEngineRead, kindEngineWrite:
		default:
			continue
		}
		b.engineNS += e.dur()
		b.engineCalls++
		b.engineBlocks += uint64(e.n) / 64
		if e.kind == kindEngineRead {
			b.readCalls = append(b.readCalls, e.dur())
		} else {
			b.writeCalls = append(b.writeCalls, e.dur())
		}
		// One caller owns each span and has one op outstanding, so the
		// ops on a span never overlap: the only candidate parent is the
		// last one that started before e.
		cands := byAddr[e.addr/spanBytes]
		k := sort.Search(len(cands), func(j int) bool { return clients[cands[j]].start > e.start }) - 1
		parent := -1
		if k >= 0 && clients[cands[k]].covers(e) {
			parent = cands[k]
		}
		if parent < 0 {
			b.orphans++
			continue
		}
		children[parent] = append(children[parent], e)
		links[e.node] = append(links[e.node], dataLink{end: e.end, parent: parent})
	}
	for _, l := range links {
		sort.Slice(l, func(i, j int) bool { return l[i].end < l[j].end })
	}
	self := make([]int64, len(clients))
	for i, c := range clients {
		self[i] = selfTime(c, children[i])
	}
	// A root pin carries no address. The server computes it on the
	// goroutine that has just run the request's data call on the same
	// node, so its parent is the parent of that node's latest data call to
	// end before the pin whose op also covers the pin's interval. Only
	// the last few calls can be that one: each caller has one op in flight.
	for _, r := range roots {
		l := links[r.node]
		parent := -1
		last := sort.Search(len(l), func(j int) bool { return l[j].end > r.start }) - 1
		for k := last; k >= 0 && k > last-4*callers; k-- {
			if p := clients[l[k].parent]; p.start <= r.start && r.end <= p.end {
				parent = l[k].parent
				break
			}
		}
		if parent < 0 {
			b.orphans++
			continue
		}
		children[parent] = append(children[parent], r)
	}
	for i, c := range clients {
		b.ops++
		b.opNS += c.dur()
		b.childNS += c.dur() - self[i]
		b.rootChildNS += self[i] - selfTime(c, children[i])
	}
	return b
}
