package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"authmem"
	"authmem/client"
	"authmem/cluster"
	"authmem/internal/server"
	"authmem/internal/wire"
)

// memConfig is what memserved serves with no flags other than a key:
// authmem.DefaultConfig over 64 MB, default crypto backend and codec.
func memConfig(seed int64) authmem.Config {
	cfg := authmem.DefaultConfig(regionBytes)
	cfg.Key = make([]byte, authmem.KeySize)
	for i := range cfg.Key {
		cfg.Key[i] = byte(mix64(uint64(seed) + uint64(i)))
	}
	return cfg
}

// buildRegion builds a 4-shard region and pre-writes every span with its
// version-0 pattern.
func buildRegion(seed int64) (*authmem.ShardedMemory, error) {
	mem, err := authmem.NewSharded(memConfig(seed), shardCount)
	if err != nil {
		return nil, err
	}
	if err := prewrite(seed, mem.WriteBlocks); err != nil {
		return nil, err
	}
	return mem, nil
}

// prewrite writes every span's version-0 pattern through write, one
// goroutine per shard, 64 KB per call.
func prewrite(seed int64, write func(addr uint64, src []byte) error) error {
	const chunkSpans = 256
	errs := make([]error, shardCount)
	var wg sync.WaitGroup
	for sh := 0; sh < shardCount; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			buf := make([]byte, chunkSpans*spanBytes)
			for s := uint64(sh) * shardSpans; s < uint64(sh+1)*shardSpans; s += chunkSpans {
				for i := uint64(0); i < chunkSpans; i++ {
					fillPattern(buf[i*spanBytes:(i+1)*spanBytes], seed, s+i, 0)
				}
				if err := write(s*spanBytes, buf); err != nil {
					errs[sh] = err
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("pre-write: %w", err)
	}
	return nil
}

// memNode is one in-process memserved node: a region and the server in
// front of it on a localhost TCP listener.
type memNode struct {
	name string
	mem  *authmem.ShardedMemory
	srv  *server.Server
	addr string
	done chan error
}

// startServer serves b (n.mem, or a timing wrapper around it) on a fresh
// localhost listener, counting server-side socket writes into wires when
// it is set.
func (n *memNode) startServer(b server.Backend, wires *connCounters) error {
	srv, err := server.New(server.Config{Backend: b, NodeID: n.name})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv, n.addr, n.done = srv, l.Addr().String(), make(chan error, 1)
	var ln net.Listener = l
	if wires != nil {
		ln = &countingListener{Listener: l, ctr: wires}
	}
	go func() { n.done <- srv.Serve(ln) }()
	return nil
}

// stopServer drains the server and waits for Serve to return.
func (n *memNode) stopServer() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; serr != nil && !errors.Is(serr, server.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	n.srv = nil
	return err
}

// startNodes builds, pre-writes and serves count in-process nodes. It is
// the timed set-up of the in-process workloads.
func startNodes(seed int64, count int) ([]*memNode, error) {
	var nodes []*memNode
	for i := 0; i < count; i++ {
		mem, err := buildRegion(seed)
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		n := &memNode{name: fmt.Sprintf("node-%d", i), mem: mem}
		if err := n.startServer(mem, nil); err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func stopNodes(nodes []*memNode) error {
	var errs []error
	for _, n := range nodes {
		errs = append(errs, n.stopServer())
	}
	return errors.Join(errs...)
}

// target is what the load generator drives: one client, or one cluster.
type target interface {
	read(addr uint64, dst []byte) error
	write(addr uint64, src []byte) error
	close() error
}

type clientTarget struct{ c *client.Client }

func (t clientTarget) read(addr uint64, dst []byte) error {
	_, err := t.c.Read(addr, dst)
	return err
}

func (t clientTarget) write(addr uint64, src []byte) error {
	_, err := t.c.Write(addr, src)
	return err
}

func (t clientTarget) close() error { return t.c.Close() }

type clusterTarget struct{ c *cluster.Cluster }

func (t clusterTarget) read(addr uint64, dst []byte) error {
	_, err := t.c.Read(addr, dst)
	return err
}

func (t clusterTarget) write(addr uint64, src []byte) error {
	_, err := t.c.Write(addr, src)
	return err
}

func (t clusterTarget) close() error { return t.c.Close() }

// conns is the connection count per server: at most one per CPU.
func conns() int { return min(runtime.NumCPU(), callers) }

// dialer returns the dial function for addr, counted when wires is set.
func dialer(addr string, wires *connCounters) func() (net.Conn, error) {
	d := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	if wires != nil {
		return countingDial(d, wires)
	}
	return d
}

// connect builds the target for the in-process nodes: a plain client for
// one node, a cluster with R=2 and one connection per node for two.
func connect(nodes []*memNode, wires *connCounters) (target, *client.Client, error) {
	if len(nodes) == 1 {
		c, err := client.New(client.Options{Dial: dialer(nodes[0].addr, wires), Conns: conns()})
		if err != nil {
			return nil, nil, err
		}
		return clientTarget{c}, c, nil
	}
	var members []cluster.Node
	for _, n := range nodes {
		members = append(members, cluster.Node{Name: n.name, Dial: dialer(n.addr, wires)})
	}
	c, err := cluster.New(cluster.Options{
		Nodes:       members,
		Size:        regionBytes,
		Replication: 2,
		Client:      client.Options{Conns: 1},
	})
	if err != nil {
		return nil, nil, err
	}
	return clusterTarget{c: c}, nil, nil
}

// isIntegrityErr reports the verdicts that must never appear on fault-free
// traffic: MAC_FAIL, QUARANTINED and unresolved quorums.
func isIntegrityErr(err error) bool {
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Status == wire.StatusMACFail || se.Status == wire.StatusQuarantined
	}
	var qe *cluster.QuorumError
	return errors.As(err, &qe)
}
