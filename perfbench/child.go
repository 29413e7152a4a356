package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"authmem/client"
)

// daemon is one memserved -wal child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	err  error // Wait's result, set before done closes

	mu     sync.Mutex
	stderr strings.Builder
}

// childEnv is the generator's environment without the variables that
// would silently change the crypto backend or the ECC codec.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "AUTHMEM_CRYPTO_BACKEND=") || strings.HasPrefix(kv, "AUTHMEM_ECC_CODEC=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// freeAddr returns a localhost address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stderr.Len() < 1<<16 {
		d.stderr.Write(p)
	}
	return len(p), nil
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// startDaemon launches memserved in durable mode on dir and waits until it
// accepts connections.
func startDaemon(bin, dir string, seed int64) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	key := hex.EncodeToString(memConfig(seed).Key)
	d := &daemon{addr: addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-wal", dir, "-addr", addr, "-key-hex", key)
	d.cmd.Env = childEnv()
	d.cmd.Stdout = d
	d.cmd.Stderr = d
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start memserved: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("memserved exited before serving: %v\n%s", d.err, d.log())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("memserved did not listen on %s in time\n%s", addr, d.log())
		}
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop sends SIGTERM (drain, final checkpoint) and waits for exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("memserved did not exit after SIGTERM\n%s", d.log())
	}
	if d.err != nil {
		return fmt.Errorf("memserved exit: %v\n%s", d.err, d.log())
	}
	return nil
}

// kill ends the child without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// dial connects a client to the daemon.
func (d *daemon) dial() (*client.Client, error) {
	return client.New(client.Options{Dial: dialer(d.addr, nil), Conns: conns()})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
