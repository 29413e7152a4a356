package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"
)

// shadow is the generator's copy of the region: the version of every span's
// content. Span s is only ever touched by caller s % callers, so each slot
// has a single owner and needs no lock.
type shadow struct {
	seed    int64
	ver     []uint32 // version of the span's last write (0 = the pre-write)
	unknown []bool   // the last write failed: whether it applied is unknown
}

func newShadow(seed int64) *shadow {
	return &shadow{seed: seed, ver: make([]uint32, regionSpans), unknown: make([]bool, regionSpans)}
}

// nextVer is the version the next write to span carries. It is above every
// version the span was ever written with, acknowledged or not, so bytes a
// lost write leaves behind never match it.
func (sh *shadow) nextVer(span uint64) uint32 { return sh.ver[span] + 1 }

// wrote records the outcome of writing version v to span.
func (sh *shadow) wrote(span uint64, v uint32, err error) {
	sh.ver[span] = v
	sh.unknown[span] = err != nil
}

// check compares data read from span against the shadow copy. A span whose
// last write failed holds one of two versions, so it is not compared.
func (sh *shadow) check(span uint64, data, scratch []byte) bool {
	if sh.unknown[span] {
		return true
	}
	fillPattern(scratch, sh.seed, span, sh.ver[span])
	return bytes.Equal(data, scratch)
}

// tally is one caller's (or a whole run's) outcome counts.
type tally struct {
	attempted, failed int
	mismatches        int // reads that returned the wrong bytes
	integrity         int // MAC_FAIL, QUARANTINED or *QuorumError
	firstErr          error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.integrity += o.integrity
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if isIntegrityErr(err) {
		t.integrity++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// correct is the run's correctness verdict: no wrong bytes and no
// integrity verdict on fault-free traffic.
func (t *tally) correct() bool { return t.mismatches == 0 && t.integrity == 0 }

// callerLoad is what one caller records during a timed phase. Latencies
// are in ns; readAt/writeAt are each op's completion time in ns since the
// phase began.
type callerLoad struct {
	tally
	readNS, writeNS []int64
	readAt, writeAt []int64
	spans           []span // client-op spans (traced phases only)
	elapsed         time.Duration
}

// phaseResult aggregates a timed phase.
type phaseResult struct {
	callerLoad
	dur   time.Duration // the phase's planned length
	steal []stealSample
}

func (p phaseResult) opsPerSec() float64 {
	return float64(p.attempted) / p.elapsed.Seconds()
}

// steadyOpsPerSec is p's op rate as ops_per_s reports it (the median over
// its least-stolen windows), or over the whole phase when it is too short
// to cut into windows.
func (p phaseResult) steadyOpsPerSec() float64 {
	if ws, err := windowed(p); err == nil {
		return median(ws.opsPerSec)
	}
	return p.opsPerSec()
}

// runPhase drives one closed-loop caller per stream for dur: each caller
// issues its next op only after the previous one returns. Every read is
// checked against the shadow copy. With rec set, each op is also recorded
// as a client-op span.
func runPhase(t target, streams []*opStream, sh *shadow, dur time.Duration, rec *recorder) phaseResult {
	res := make([]callerLoad, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	stop := make(chan struct{})
	samples := sampleSteal(start, stop)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = runCaller(t, streams[i], sh, start, deadline, rec)
			res[i].elapsed = time.Since(start)
		}(i)
	}
	wg.Wait()
	close(stop)
	p := phaseResult{dur: dur, steal: <-samples}
	for _, r := range res {
		p.tally.add(r.tally)
		p.readNS = append(p.readNS, r.readNS...)
		p.writeNS = append(p.writeNS, r.writeNS...)
		p.readAt = append(p.readAt, r.readAt...)
		p.writeAt = append(p.writeAt, r.writeAt...)
		p.spans = append(p.spans, r.spans...)
		p.elapsed = max(p.elapsed, r.elapsed)
	}
	return p
}

// runCaller issues s's ops until deadline.
func runCaller(t target, s *opStream, sh *shadow, start, deadline time.Time, rec *recorder) callerLoad {
	var out callerLoad
	buf := make([]byte, spanBytes)
	scratch := make([]byte, spanBytes)
	for time.Now().Before(deadline) {
		o := s.next()
		addr := o.span * spanBytes
		var ver uint32
		if o.write {
			ver = sh.nextVer(o.span)
			fillPattern(buf, sh.seed, o.span, ver)
		}
		var t0 int64
		if rec != nil {
			t0 = rec.now()
		}
		begin := time.Now()
		var err error
		if o.write {
			err = t.write(addr, buf)
		} else {
			err = t.read(addr, buf)
		}
		end := time.Now()
		el, at := int64(end.Sub(begin)), int64(end.Sub(start))
		if rec != nil {
			kind := kindClientRead
			if o.write {
				kind = kindClientWrite
			}
			out.spans = append(out.spans, span{start: t0, end: rec.now(), addr: addr, n: spanBytes, kind: kind})
		}
		out.attempted++
		if o.write {
			sh.wrote(o.span, ver, err)
		}
		switch {
		case err != nil:
			out.fail(fmt.Errorf("%s span %d: %w", opName(o), o.span, err))
		case o.write:
			out.writeNS = append(out.writeNS, el)
			out.writeAt = append(out.writeAt, at)
		default:
			if !sh.check(o.span, buf, scratch) {
				out.mismatches++
				out.failed++
				if out.firstErr == nil {
					out.firstErr = fmt.Errorf("read span %d: data differs from the shadow copy", o.span)
				}
			}
			out.readNS = append(out.readNS, el)
			out.readAt = append(out.readAt, at)
		}
	}
	return out
}

func opName(o op) string {
	if o.write {
		return "write"
	}
	return "read"
}

// readBackAll reads back each caller's list of spans, one goroutine per
// caller, and checks every one against the shadow copy.
func readBackAll(t target, lists [callers][]uint64, sh *shadow) tally {
	var mu sync.Mutex
	var total tally
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tl := readBack(t, lists[c], sh)
			mu.Lock()
			total.add(tl)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total
}

// readBack reads every listed span and checks it against the shadow copy.
func readBack(t target, spans []uint64, sh *shadow) tally {
	var tl tally
	buf := make([]byte, spanBytes)
	scratch := make([]byte, spanBytes)
	for _, s := range spans {
		tl.attempted++
		if err := t.read(s*spanBytes, buf); err != nil {
			tl.fail(fmt.Errorf("read-back span %d: %w", s, err))
			continue
		}
		if !sh.check(s, buf, scratch) {
			tl.mismatches++
			tl.failed++
			if tl.firstErr == nil {
				tl.firstErr = fmt.Errorf("read-back span %d: data differs from the shadow copy", s)
			}
		}
	}
	return tl
}

// writtenSpans lists every span with an acknowledged write, by owner.
func (sh *shadow) writtenSpans() [callers][]uint64 {
	var out [callers][]uint64
	for s, v := range sh.ver {
		if v != 0 && !sh.unknown[s] {
			out[s%callers] = append(out[s%callers], uint64(s))
		}
	}
	return out
}

// verifyWritten reads back every acknowledged write.
func verifyWritten(t target, sh *shadow) tally {
	return readBackAll(t, sh.writtenSpans(), sh)
}
