package main

import (
	"fmt"
	"time"

	"authmem/internal/crypto"
	"authmem/internal/ctr"
	"authmem/internal/macecc"
	"authmem/internal/tree"
)

// kernelTimes is the traced run's timed pass over the configured backend's
// public kernel entry points, in ns per call (median of several batches).
type kernelTimes struct {
	padNS, tagNS, verifyNS, treeVerifyNS, treeUpdateNS float64
	backend                                            string
}

// timeKernel times batches of n calls of f and returns the median ns/call.
func timeKernel(n int, f func(i int) error) (float64, error) {
	const batches = 5
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(b*n + i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// measureKernels builds the served configuration's kernels (backend
// resolved as the engine resolves it, one shard's tree geometry) and times
// one call of each on a clean 64-byte block.
func measureKernels(seed int64) (kernelTimes, error) {
	cfg := memConfig(seed)
	be, err := crypto.Lookup(cfg.CryptoBackend)
	if err != nil {
		return kernelTimes{}, err
	}
	kt := kernelTimes{backend: be.Name()}
	stream, err := be.NewStream(cfg.Key[24:40])
	if err != nil {
		return kt, err
	}
	mac, err := be.NewMAC(cfg.Key[:24])
	if err != nil {
		return kt, err
	}
	const n = 20000
	block := make([]byte, 64)
	fillPattern(block, seed, 0, 0)
	pad := make([]byte, 64)
	if kt.padNS, err = timeKernel(n, func(i int) error {
		return stream.Pad(pad, uint64(i%4096)*64, uint64(i))
	}); err != nil {
		return kt, fmt.Errorf("pad: %w", err)
	}
	if kt.tagNS, err = timeKernel(n, func(i int) error {
		_, err := mac.Tag(block, uint64(i%4096)*64, uint64(i))
		return err
	}); err != nil {
		return kt, fmt.Errorf("mac tag: %w", err)
	}

	v, err := macecc.NewVerifier(mac, cfg.CorrectBits)
	if err != nil {
		return kt, err
	}
	const addr, counter = 4096, 7
	tag, err := mac.Tag(block, addr, counter)
	if err != nil {
		return kt, err
	}
	clean := macecc.PackMeta(tag, block)
	if kt.verifyNS, err = timeKernel(n, func(int) error {
		meta := clean
		out, err := v.VerifyAndCorrect(block, &meta, addr, counter)
		if err == nil && (out.Status != macecc.OK || out.CorrectedDataBits+out.CorrectedMACBits != 0) {
			err = fmt.Errorf("clean block verified as %v with corrections", out.Status)
		}
		return err
	}); err != nil {
		return kt, fmt.Errorf("macecc verify: %w", err)
	}

	scheme, err := ctr.NewScheme(ctr.Delta)
	if err != nil {
		return kt, err
	}
	leaves := scheme.MetadataBlocks(regionBytes / shardCount / 64)
	tr, err := tree.New(mac, leaves, cfg.OnChipTreeBytes)
	if err != nil {
		return kt, err
	}
	zero := make([]byte, tree.NodeBytes)
	if err := tr.Rebuild(func(uint64) []byte { return zero }); err != nil {
		return kt, err
	}
	if kt.treeVerifyNS, err = timeKernel(n, func(i int) error {
		return tr.VerifyLeafFast(uint64(mix64(uint64(i))%leaves), zero)
	}); err != nil {
		return kt, fmt.Errorf("tree verify: %w", err)
	}
	if kt.treeUpdateNS, err = timeKernel(n, func(i int) error {
		return tr.UpdateLeafFast(uint64(mix64(uint64(i))%leaves), zero)
	}); err != nil {
		return kt, fmt.Errorf("tree update: %w", err)
	}
	return kt, nil
}
