package main

import (
	"fmt"
	"strings"

	"repro/internal/workload"
	"repro/quant"
	"repro/sim"
)

// EstimateOptions selects a performance-simulator configuration by
// name, mirroring the paper's experiment axes.
type EstimateOptions struct {
	// Network is a Figure 3 name: AlexNet, VGG19, BN-Inception,
	// ResNet50, ResNet152, ResNet110, LSTM.
	Network string
	// Machine is EC2-P2 or DGX-1.
	Machine string
	// Primitive is MPI or NCCL.
	Primitive string
	// Precision is a precision policy string (quant.ParsePolicy
	// grammar): a paper row label such as 32bit, qsgd16/8/4/2, 1bit,
	// 1bit*, or a full mixed policy like "qsgd4b512;fc6=topk0.01".
	Precision string
	// GPUs is the device count.
	GPUs int
	// Batch overrides Figure 4 when positive.
	Batch int
}

// Estimate prices one configuration with the calibrated cost model.
func Estimate(opts EstimateOptions) (sim.Result, error) {
	net, err := workload.NetworkByName(opts.Network)
	if err != nil {
		return sim.Result{}, err
	}
	m, err := workload.MachineByName(opts.Machine)
	if err != nil {
		return sim.Result{}, err
	}
	var prim sim.Primitive
	switch strings.ToUpper(opts.Primitive) {
	case "MPI", "":
		prim = sim.MPI
	case "NCCL":
		prim = sim.NCCL
	default:
		return sim.Result{}, fmt.Errorf("unknown primitive %q", opts.Primitive)
	}
	precision := opts.Precision
	if precision == "" {
		precision = "32bit"
	}
	policy, err := quant.ParsePolicy(precision)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(sim.Config{
		Network:       net,
		Machine:       m,
		Primitive:     prim,
		Policy:        policy,
		GPUs:          opts.GPUs,
		BatchOverride: opts.Batch,
	})
}
