package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/vtime"
)

const (
	poolName   = "rbd"
	imageName  = "bench"
	passphrase = "bench"
)

// stack is one full instance of the system under test: a data-retaining
// paper-shaped cluster, one image, and the encrypted view fio drives.
type stack struct {
	cluster *rados.Cluster
	client  *rados.Client
	img     *rbd.Image
	enc     *core.EncryptedImage
	now     vtime.Time // virtual clock: the end of the last pass
}

func (s *stack) close() { s.cluster.Close() }

// clusterConfig is the paper's cluster (3 OSDs x 9 disks, 3 replicas,
// 4 MB objects) keeping its data, so reads open what writes sealed.
func clusterConfig(w workload) rados.ClusterConfig {
	cfg := rados.DefaultClusterConfig()
	if w.memtableBytes > 0 {
		cfg.Blob.KV.MemtableBytes = w.memtableBytes
	}
	return cfg
}

// newImage creates, formats and loads an encrypted image on cluster.
func newImage(cluster *rados.Cluster, scheme core.Scheme, layout core.Layout, size int64) (*stack, error) {
	s := &stack{cluster: cluster, client: cluster.NewClient("bench-client")}
	if _, err := rbd.Create(0, s.client, poolName, imageName, size); err != nil {
		return nil, err
	}
	img, _, err := rbd.Open(0, s.client, poolName, imageName)
	if err != nil {
		return nil, err
	}
	s.img = img
	if _, err := core.Format(0, img, []byte(passphrase), core.Options{Scheme: scheme, Layout: layout}); err != nil {
		return nil, err
	}
	if s.enc, _, err = core.Load(0, img, []byte(passphrase)); err != nil {
		return nil, err
	}
	return s, nil
}

// buildStack is the set-up the setup_s metric times: cluster build,
// create/format/load, precondition, and a discarded warm-up pass of
// warmOps ops under a seed the measured window never uses (the first
// pass over a fresh cluster runs 30-40 % slower than steady state).
func buildStack(w workload, scheme core.Scheme, layout core.Layout, sz sizing, warmOps int, seed int64) (*stack, time.Duration, error) {
	start := time.Now()
	cluster, err := rados.NewCluster(clusterConfig(w))
	if err != nil {
		return nil, 0, err
	}
	s, err := newImage(cluster, scheme, layout, sz.imageBytes)
	if err != nil {
		cluster.Close()
		return nil, 0, fmt.Errorf("image: %w", err)
	}
	if s.now, err = fio.Precondition(s.enc, 0, core.DefaultBlockSize, 0); err != nil {
		cluster.Close()
		return nil, 0, fmt.Errorf("precondition: %w", err)
	}
	if warmOps > 0 {
		res, err := fio.Run(w.spec(sz, warmOps, warmSeed(seed)), s.enc, s.now)
		if err != nil {
			cluster.Close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		s.now = res.End
	}
	return s, time.Since(start), nil
}

func (w workload) spec(sz sizing, ops int, seed int64) fio.Spec {
	return fio.Spec{Pattern: w.pattern, BlockSize: w.blockSize, QueueDepth: w.jobs(sz), TotalOps: ops, Seed: seed}
}

// jobs is the workload's queue depth: its own when it sets one and the
// sizing does not shrink the load model, else the sizing's.
func (w workload) jobs(sz sizing) int {
	if w.queueDepth > 0 && w.queueDepth < sz.queueDepth {
		return w.queueDepth
	}
	return sz.queueDepth
}

// The benchmark seed only selects offsets. fio.Run derives job j's
// stream from Seed + j*7919, so chunk seeds are spaced far wider than
// 32 jobs' worth, and the warm-up sits on the negative side.
func chunkSeed(seed int64, chunk int) int64 { return 1 + seed*1_000_003 + int64(chunk)*524_287 }
func warmSeed(seed int64) int64             { return -chunkSeed(seed, 1) }
