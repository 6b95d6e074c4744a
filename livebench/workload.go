package main

import (
	"fmt"

	"repro/data"
	"repro/lpsgd"
	"repro/nn"
	"repro/parallel"
	"repro/rng"
	"repro/tensor"
)

// world is the number of rank processes of every workload.
const world = 2

// workload is one benchmark configuration. The rank processes derive
// every input from it and the seed: the datasets, the initial weights,
// the shuffle order and the stochastic-rounding streams.
type workload struct {
	name, why string
	policy    string
	batch     int // global minibatch, sharded over the ranks
	lr        float32
	momentum  float32
	epochs    int
	// stepsPerEpoch sizes the training set: stepsPerEpoch*batch samples.
	stepsPerEpoch int
	testN         int
	classes       int
	build         func(r *rng.RNG) *nn.Network
	data          func(trainN, testN int, seed uint64) (train, test *data.Dataset)
}

func (w *workload) stepsPerEpisode() int { return w.epochs * w.stepsPerEpoch }

// config is the trainer configuration every episode shares; the caller
// sets the world. Test accuracy is evaluated once, after the last step,
// so no evaluation falls inside a timed step interval.
func (w *workload) config(seed uint64) parallel.Config {
	return parallel.Config{
		BatchSize: w.batch,
		Epochs:    w.epochs,
		Schedule:  nn.ConstantLR(w.lr),
		Momentum:  w.momentum,
		Seed:      seed,
		EvalEvery: w.epochs,
	}
}

// The two fc workloads share model, data, batch and seed and differ only
// in the policy: the paper's communication-bound regime asked once with
// 4-bit QSGD (codec cost dominates on this host) and once at full
// precision (eight times the bytes, no codec), so a codec change and a
// transport change each have a workload that bypasses them. conv-qsgd4
// is the compute-bound regime: a small convolutional network whose
// exchange is a few KB of latency-bound messages.
var workloads = []*workload{
	{
		name:     "fc-qsgd4",
		why:      "communication-bound MLP under 4-bit QSGD: the quantise/encode/decode path owns most of the step",
		policy:   "qsgd4b512",
		batch:    16,
		lr:       0.01,
		momentum: 0.9,
		epochs:   2, stepsPerEpoch: 16, testN: 32, classes: 10,
		build: lpsgd.MLP(64, 512, 512, 10),
		data: func(trainN, testN int, seed uint64) (*data.Dataset, *data.Dataset) {
			return lpsgd.SyntheticImages(10, trainN, testN, seed)
		},
	},
	{
		name:     "fc-fp32",
		why:      "same MLP, data and seed at full precision: 8x the bytes, no codec, so transport and framing dominate",
		policy:   "32bit",
		batch:    16,
		lr:       0.01,
		momentum: 0.9,
		epochs:   2, stepsPerEpoch: 16, testN: 32, classes: 10,
		build: lpsgd.MLP(64, 512, 512, 10),
		data: func(trainN, testN int, seed uint64) (*data.Dataset, *data.Dataset) {
			return lpsgd.SyntheticImages(10, trainN, testN, seed)
		},
	},
	{
		name:     "conv-qsgd4",
		why:      "compute-bound conv net under 4-bit QSGD: conv kernels own the step, the exchange is a few KB",
		policy:   "qsgd4b512",
		batch:    64,
		lr:       0.05,
		momentum: 0.9,
		epochs:   2, stepsPerEpoch: 16, testN: 64, classes: 10,
		build: imageModel,
		data: func(trainN, testN int, seed uint64) (*data.Dataset, *data.Dataset) {
			return data.MakeImages(data.ImageConfig{
				Classes: 10, Channels: 3, H: 12, W: 12,
				TrainN: trainN, TestN: testN, Noise: 2.0, Shift: true, Seed: seed,
			})
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// imageModel is the image task cmd/lpsgd-worker trains: two 3x3
// convolutions with batch norm and max pooling, then two dense layers,
// on 3x12x12 inputs (~11k parameters).
func imageModel(r *rng.RNG) *nn.Network {
	c1 := nn.NewConv2D("conv1", tensor.ConvShape{
		InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)
	c2 := nn.NewConv2D("conv2", tensor.ConvShape{
		InC: 8, InH: 6, InW: 6, OutC: 16, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)
	return nn.MustNetwork(
		c1,
		nn.NewBatchNorm("bn1", 8, 12*12),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 8, 12, 12, 2, 2, 2, 2),
		c2,
		nn.NewBatchNorm("bn2", 16, 6*6),
		nn.NewReLU("relu2"),
		nn.NewMaxPool2D("pool2", 16, 6, 6, 2, 2, 2, 2),
		nn.NewDense("fc1", 16*3*3, 64, r),
		nn.NewReLU("relu3"),
		nn.NewDense("fc2", 64, 10, r),
	)
}
