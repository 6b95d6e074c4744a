package main

import "testing"

func TestEstimate(t *testing.T) {
	r, err := Estimate(EstimateOptions{
		Network: "AlexNet", Machine: "EC2-P2",
		Primitive: "MPI", Precision: "qsgd4", GPUs: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SamplesPerSec < 100 {
		t.Fatalf("implausible throughput %v", r.SamplesPerSec)
	}
	if r.Codec != "qsgd4b512" {
		t.Fatalf("codec %q", r.Codec)
	}
}

func TestEstimateDefaults(t *testing.T) {
	r, err := Estimate(EstimateOptions{Network: "ResNet50", Machine: "DGX-1", GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Primitive != "MPI" || r.Codec != "32bit" {
		t.Fatalf("defaults wrong: %s %s", r.Primitive, r.Codec)
	}
}

func TestEstimateErrors(t *testing.T) {
	cases := []EstimateOptions{
		{Network: "Nope", Machine: "EC2-P2", GPUs: 2},
		{Network: "AlexNet", Machine: "Nope", GPUs: 2},
		{Network: "AlexNet", Machine: "EC2-P2", Primitive: "RDMA", GPUs: 2},
		{Network: "AlexNet", Machine: "EC2-P2", Precision: "qsgd3", GPUs: 2},
		{Network: "AlexNet", Machine: "EC2-P2", Primitive: "NCCL", GPUs: 16},
	}
	for i, opts := range cases {
		if _, err := Estimate(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
