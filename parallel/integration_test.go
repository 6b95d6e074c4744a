package parallel

import (
	"testing"

	"repro/comm"
	"repro/data"
	"repro/internal/workload"
	"repro/nn"
	"repro/quant"
	"repro/rng"
	"repro/sim"
	"repro/tensor"
)

// These integration tests close the loop between the *real* engine and
// the *modelled* costs: the bytes the fabric actually moves per
// iteration must equal both the reducer's closed-form prediction and
// the quant.Plan arithmetic the performance simulator prices — the
// chain of equalities the performance figures rest on.

func buildSmallCNN() func(r *rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		c1 := nn.NewConv2D("conv1", tensor.ConvShape{
			InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)
		return nn.MustNetwork(
			c1,
			nn.NewReLU("relu1"),
			nn.NewDense("fc", c1.OutLen(), 4, r),
		)
	}
}

// TestWireBytesMatchReducerPrediction: real fabric bytes per iteration
// == ReduceBroadcast.WireBytesPerExchange, for several codecs.
func TestWireBytesMatchReducerPrediction(t *testing.T) {
	train, test := data.MakeImages(data.ImageConfig{
		Classes: 4, Channels: 1, H: 8, W: 8,
		TrainN: 64, TestN: 32, Noise: 0.5, Seed: 11,
	})
	for _, codec := range []quant.Codec{
		quant.FP32{},
		quant.OneBit{},
		quant.NewOneBitReshaped(64),
		quant.NewQSGD(4, 512, quant.MaxNorm),
		quant.NewTopK(0.05),
	} {
		tr, err := NewTrainer(buildSmallCNN(), Config{
			Workers: 4, BatchSize: 32, Epochs: 1,
			Schedule: nn.ConstantLR(0.05), Seed: 12,
			// Quantise everything: exact arithmetic below.
			Policy: &quant.Policy{Base: codec, MinFrac: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := tr.Run(train, test)
		if err != nil {
			t.Fatal(err)
		}
		rb, ok := tr.Reducer().(*comm.ReduceBroadcast)
		if !ok {
			t.Fatal("expected reduce-broadcast")
		}
		iters := int64(64 / 32) // full batches per epoch
		want := rb.WireBytesPerExchange() * iters
		if h.TotalWireBytes != want {
			t.Errorf("%s: fabric moved %d bytes, predicted %d",
				codec.Name(), h.TotalWireBytes, want)
		}
	}
}

// TestEngineBytesConsistentWithPlanArithmetic: for K=2 without striping
// subtleties, fabric traffic per iteration must equal
// 2 · (K−1)/K · K · plan.WireBytes = 2 · plan-encoded bytes... more
// precisely: for each tensor, every peer sends K−1 stripes and each
// owner broadcasts to K−1 peers, so total = 2(K−1) × (encoded bytes of
// the whole model at stripe granularity). With group-aligned stripes
// the stripe-encoded total equals the plan's whole-tensor total.
func TestEngineBytesConsistentWithPlanArithmetic(t *testing.T) {
	const k = 2
	codec := quant.NewQSGD(8, 512, quant.MaxNorm)
	tr, err := NewTrainer(buildSmallCNN(), Config{
		Workers: k, Policy: &quant.Policy{Base: codec, MinFrac: 1}, BatchSize: 16, Epochs: 1,
		Schedule: nn.ConstantLR(0.05), Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := tr.Plan()
	rb := tr.Reducer().(*comm.ReduceBroadcast)
	// Stripe-granular totals can only differ from whole-tensor totals
	// by per-stripe partial-group padding; with bucket-aligned stripes
	// they must be within one bucket header per (tensor, stripe).
	predicted := rb.WireBytesPerExchange()
	wholeTensor := 2 * int64(k-1) * plan.WireBytes()
	diff := predicted - wholeTensor
	if diff < 0 {
		diff = -diff
	}
	maxSlack := int64(plan.NumTensors() * k * 8)
	if diff > maxSlack {
		t.Fatalf("stripe total %d vs whole-tensor total %d differ by %d (> %d slack)",
			predicted, wholeTensor, diff, maxSlack)
	}
}

// TestSimulatorAndEngineAgreeOnModelBytes: the simulator's RawBytes for
// a workload equals 4 bytes × the parameter count of the inventory —
// and the engine's plan on a real network obeys the same arithmetic.
func TestSimulatorAndEngineAgreeOnModelBytes(t *testing.T) {
	r, err := sim.Run(sim.Config{
		Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: sim.MPI, GPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.RawBytes != workload.AlexNet.ModelBytes() {
		t.Fatalf("simulator raw bytes %d != model bytes %d",
			r.RawBytes, workload.AlexNet.ModelBytes())
	}
	tr, err := NewTrainer(buildSmallCNN(), Config{
		Workers: 2, BatchSize: 8, Epochs: 1,
		Schedule: nn.ConstantLR(0.05), Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	var params int64
	for _, p := range tr.Model().Params() {
		params += int64(p.Value.Len())
	}
	if tr.Plan().RawBytes() != 4*params {
		t.Fatalf("plan raw bytes %d != 4×params %d", tr.Plan().RawBytes(), 4*params)
	}
}

// TestQuantisedFractionMatchesPolicyOnRealModel: the engine applies the
// paper's ≥99% small-matrix exemption on a real model.
func TestQuantisedFractionMatchesPolicyOnRealModel(t *testing.T) {
	tr, err := NewTrainer(buildSmallCNN(), Config{
		Workers: 2, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		BatchSize: 8, Epochs: 1, Schedule: nn.ConstantLR(0.05), Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := tr.Plan().QuantisedFraction(); f < 0.99 {
		t.Fatalf("quantised fraction %v < 0.99", f)
	}
	// The conv bias (4 elements) must ride the full-precision fallback.
	foundFallback := false
	for i := 0; i < tr.Plan().NumTensors(); i++ {
		if _, fp := tr.Plan().CodecFor(i).(quant.FP32); fp {
			foundFallback = true
		}
	}
	if !foundFallback {
		t.Fatal("expected at least one small tensor on the fp32 fallback")
	}
}
