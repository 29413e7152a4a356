package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// walWorkload is the mix the WAL sub-phase drives through a memserved -wal
// child: 20% uniform reads and 80% writes with cold-mixed's write
// distribution. It is not a benchmark workload of its own: its end-to-end
// figures are fsync-bound and too unsteady to hold a bound on a shared
// host, so the traced cold-mixed run measures the WAL layer with it.
var walWorkload = workload{name: "durable-write", readFrac: 0.2, reads: distUniform, writes: distWriteZipf}

// walResult is what the WAL sub-phase measured.
type walResult struct {
	tally
	phase      phaseResult
	writeBytes float64 // bytes the child wrote to storage during the phase (/proc/<pid>/io)
	dirEnd     float64 // size of the WAL directory when the phase ended
	recover    timing  // SIGTERM-drained restart to the first verified read
}

// setupDaemon starts a memserved -wal child on an empty directory,
// pre-writes the region over TCP, then drains it (which seals the
// pre-write) and restarts it (which folds it into a fresh base generation),
// so the timed load starts from a settled log.
func setupDaemon(cfg config, dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.memserved, dir, cfg.seed)
	if err != nil {
		return nil, err
	}
	c, err := d.dial()
	if err != nil {
		d.kill()
		return nil, err
	}
	err = prewrite(cfg.seed, clientTarget{c}.write)
	c.Close()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	return startDaemon(cfg.memserved, dir, cfg.seed)
}

// measureWAL runs the WAL sub-phase: walWorkload's load for subPhase
// against a memserved -wal child, then a drain (SIGTERM seals the last
// epoch), a timed restart to the first verified read, and a read-back of
// every acknowledged write, each checked against the shadow copy.
func measureWAL(cfg config) (res walResult, err error) {
	if cfg.memserved == "" {
		return res, errors.New("the WAL sub-phase needs --memserved")
	}
	dir := filepath.Join(cfg.workdir, "wal-"+strconv.Itoa(os.Getpid()))
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	if d, err = setupDaemon(cfg, dir); err != nil {
		return res, err
	}
	c, err := d.dial()
	if err != nil {
		return res, err
	}
	tgt := target(clientTarget{c})
	sh := newShadow(cfg.seed)
	streams := newStreams(walWorkload, cfg.seed, newKeySets(cfg.seed))
	res.add(runPhase(tgt, streams, sh, warmDur, nil).tally)
	before := procField(d.pid(), "io", "write_bytes")
	res.phase = runPhase(tgt, streams, sh, subPhase, nil)
	res.add(res.phase.tally)
	res.writeBytes = procField(d.pid(), "io", "write_bytes") - before
	end, err := dirBytes(dir)
	if err != nil {
		return res, err
	}
	res.dirEnd = float64(end)

	written := sh.writtenSpans()
	if len(written[0]) == 0 {
		return res, errors.New("no acknowledged write to read back")
	}
	if err := tgt.close(); err != nil {
		return res, err
	}
	if err := d.stop(); err != nil {
		return res, err
	}
	d = nil
	res.recover, err = timeIt(func() (err error) {
		if d, err = startDaemon(cfg.memserved, dir, cfg.seed); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if c, err = d.dial(); err != nil {
			return err
		}
		tgt = clientTarget{c}
		res.add(readBack(tgt, written[0][:1], sh))
		return nil
	})
	if err != nil {
		return res, err
	}
	res.add(verifyWritten(tgt, sh))
	if err := tgt.close(); err != nil {
		return res, err
	}
	err = d.stop()
	d = nil
	return res, err
}
