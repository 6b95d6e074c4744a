package parallel

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/comm"
	"repro/quant"
)

// TestSingleRankTrainersMatchInProcess: three trainers, each driving
// one rank of a shared TCP mesh (the multi-process topology, collapsed
// into goroutines), must agree bit-for-bit with each other and with a
// single trainer that owns the whole world over the same kind of
// fabric.
func TestSingleRankTrainersMatchInProcess(t *testing.T) {
	const k = 3
	train, test := blobData(t)
	base := Config{
		Workers:   k,
		Policy:    quant.NewPolicy(quant.MustParse("qsgd4b512")),
		BatchSize: 24,
		Epochs:    2,
		Seed:      5,
	}

	// Reference: one trainer owning all K replicas over loopback TCP.
	refCfg := base
	refCfg.UseTCP = true
	ref, err := NewTrainer(buildMLP(36, 4), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Run(train, test); err != nil {
		t.Fatal(err)
	}
	var refCkpt bytes.Buffer
	if err := ref.SaveCheckpoint(&refCkpt); err != nil {
		t.Fatal(err)
	}

	// Cluster topology: K trainers, each bound to one rank's view of a
	// shared mesh.
	mesh, err := comm.NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	trainers := make([]*Trainer, k)
	for rank := 0; rank < k; rank++ {
		cfg := base
		cfg.Fabric = mesh.Rank(rank)
		cfg.Rank = rank
		tr, err := NewTrainer(buildMLP(36, 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if tr.Rank() != rank || tr.World() != k {
			t.Fatalf("trainer claims rank %d of %d", tr.Rank(), tr.World())
		}
		trainers[rank] = tr
	}
	errs := make([]error, k)
	ckpts := make([]bytes.Buffer, k)
	var wg sync.WaitGroup
	for rank := 0; rank < k; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if _, err := trainers[rank].Run(train, test); err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = trainers[rank].SaveCheckpoint(&ckpts[rank])
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank := 0; rank < k; rank++ {
		if !bytes.Equal(ckpts[rank].Bytes(), refCkpt.Bytes()) {
			t.Fatalf("rank %d diverged from the single-process reference", rank)
		}
	}
}

// TestClusterConfigValidation: a fabric/world mismatch and an
// out-of-range rank must be rejected at construction.
func TestClusterConfigValidation(t *testing.T) {
	mesh, err := comm.NewTCPFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	cfg := Config{Workers: 2, BatchSize: 8, Epochs: 1, Fabric: mesh.Rank(0)}
	if _, err := NewTrainer(buildMLP(36, 4), cfg); err == nil ||
		!strings.Contains(err.Error(), "fabric spans") {
		t.Fatalf("want fabric/world mismatch error, got %v", err)
	}
	cfg.Workers = 3
	cfg.Rank = 7
	if _, err := NewTrainer(buildMLP(36, 4), cfg); err == nil ||
		!strings.Contains(err.Error(), "rank") {
		t.Fatalf("want rank range error, got %v", err)
	}
}
