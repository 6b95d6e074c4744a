package sim

import (
	"fmt"

	"repro/comm"
	"repro/internal/workload"
	"repro/quant"
)

// Primitive selects the communication path.
type Primitive int

const (
	// MPI is the reduce-and-broadcast path (quantisation-capable).
	MPI Primitive = iota
	// NCCL is the ring-allreduce path; low-precision NCCL is the
	// paper's byte-volume simulation (§4.4).
	NCCL
)

// String names the primitive as the paper does.
func (p Primitive) String() string {
	if p == NCCL {
		return "NCCL"
	}
	return "MPI"
}

// KernelModel prices the GPU quantisation kernels. Costs are seconds on
// a K80; the machine's ComputeScale divides them.
type KernelModel struct {
	// QSGDPerElem and OneBitPerElem are per-element encode/decode costs.
	QSGDPerElem   float64
	OneBitPerElem float64
	// PerGroup is the fixed cost per quantisation group (column or
	// bucket): scale computation, kernel-launch amortisation. This term
	// is what makes tiny-column classic 1bitSGD catastrophically slow.
	PerGroup float64
}

// DefaultKernel is the calibrated kernel model (fitted to the AlexNet
// and ResNet152 rows of Figure 10).
var DefaultKernel = KernelModel{
	QSGDPerElem:   0.12e-9,
	OneBitPerElem: 0.45e-9,
	PerGroup:      20e-9,
}

// Config selects one simulated configuration.
type Config struct {
	Network   workload.Network
	Machine   workload.Machine
	Primitive Primitive
	// Policy is the precision policy to price: base codec, small-matrix
	// exemption target and per-tensor pattern rules. Nil means full
	// precision.
	Policy *quant.Policy
	GPUs   int
	// BatchOverride replaces Figure 4's batch when positive.
	BatchOverride int
	// Kernel overrides the kernel model when non-zero.
	Kernel KernelModel
	// Overlap ∈ [0, 1) hides that fraction of compute time behind
	// communication, modelling CNTK's double-buffering (§3.2.1: "while
	// some gradients are being quantized, gradients that are finished
	// ... are already being sent"). The default 0 matches the paper's
	// additive bar charts; the ablation benchmark sweeps it.
	Overlap float64
	// Framed prices the transport as a framed one (comm.Transport.
	// Framed, e.g. the TCP mesh): every message carries a
	// self-describing quant frame header on top of the codec payload.
	// The overhead arithmetic is shared with comm — the same
	// ReduceBroadcastWireBytes / RingWireBytes the fabrics' byte
	// counters are tested against — so the simulated and measured TCP
	// byte volumes agree exactly.
	Framed bool
}

// Result is one priced configuration.
type Result struct {
	Network   string
	Machine   string
	Primitive string
	Codec     string
	GPUs      int
	Batch     int

	// Per-iteration breakdown in seconds.
	ComputeSec float64
	QuantSec   float64
	CommSec    float64
	IterSec    float64

	// Derived metrics.
	SamplesPerSec float64
	EpochSec      float64

	// Wire accounting per gradient exchange. WireBytes is the encoded
	// volume of one model copy (the quantity the link model prices,
	// including per-copy frame headers when Framed); RawBytes is the
	// float32 volume of one copy. ExchangeBytes is the total a full
	// exchange puts on the fabric across all K peers — the number a
	// framed transport's byte counter measures per iteration.
	WireBytes     int64
	RawBytes      int64
	ExchangeBytes int64
}

// EpochHours returns the epoch time in hours (the unit of Figures 6–9).
func (r Result) EpochHours() float64 { return r.EpochSec / 3600 }

// CommFraction returns the share of iteration time spent communicating.
func (r Result) CommFraction() float64 {
	if r.IterSec == 0 {
		return 0
	}
	return r.CommSec / r.IterSec
}

// Run prices one configuration.
func Run(cfg Config) (Result, error) {
	net, m := cfg.Network, cfg.Machine
	if cfg.GPUs <= 0 || cfg.GPUs > m.MaxGPUs {
		return Result{}, fmt.Errorf("sim: %d GPUs outside 1..%d on %s",
			cfg.GPUs, m.MaxGPUs, m.Name)
	}
	if cfg.Primitive == NCCL && !m.SupportsNCCL(cfg.GPUs) {
		return Result{}, fmt.Errorf("sim: NCCL supports at most %d GPUs on %s",
			m.NCCLMaxGPUs, m.Name)
	}
	policy := cfg.Policy
	if policy == nil {
		policy = quant.NewPolicy(quant.FP32{})
	}
	kernel := cfg.Kernel
	if kernel == (KernelModel{}) {
		kernel = DefaultKernel
	}
	batch := cfg.BatchOverride
	if batch <= 0 {
		var ok bool
		batch, ok = net.BatchFor(cfg.GPUs)
		if !ok {
			return Result{}, fmt.Errorf("sim: %s has no batch size for %d GPUs (Figure 4)",
				net.Name, cfg.GPUs)
		}
	}
	if batch < cfg.GPUs {
		return Result{}, fmt.Errorf("sim: batch %d below GPU count %d", batch, cfg.GPUs)
	}
	perGPU := batch / cfg.GPUs

	// Compute: calibrated per-sample time, batch-efficiency adjusted.
	sampleSec := 1 / (net.ThroughputK80 * net.SampleSpeedup(perGPU) * m.GPU.ComputeScale)
	computeSec := float64(perGPU) * sampleSec

	// The caller's policy (exemption target included) prices the plan,
	// so simulated ExchangeBytes match a live exchange under the same
	// policy byte-for-byte — no hardcoded exemption fraction.
	plan := quant.NewPlan(policy, net.Tensors)
	wireBytes := plan.WireBytes()
	rawBytes := plan.RawBytes()

	res := Result{
		Network:   net.Name,
		Machine:   m.Name,
		Primitive: cfg.Primitive.String(),
		Codec:     policy.Name(),
		GPUs:      cfg.GPUs,
		Batch:     batch,

		ComputeSec: computeSec,
		WireBytes:  wireBytes,
		RawBytes:   rawBytes,
	}

	if cfg.GPUs > 1 {
		res.QuantSec = quantTime(plan, net.Tensors, kernel, cfg.Primitive, m.GPU.ComputeScale)
		rawTotal := exchangeBytes(plan, net.Tensors, cfg.Primitive, cfg.GPUs, false)
		res.ExchangeBytes = rawTotal
		if cfg.Framed {
			// One model copy's share of the per-message frame headers:
			// the full exchange carries 2(K−1) encoded copies, so the
			// total framed overhead divides exactly.
			framedTotal := exchangeBytes(plan, net.Tensors, cfg.Primitive, cfg.GPUs, true)
			wireBytes += (framedTotal - rawTotal) / int64(2*(cfg.GPUs-1))
			res.WireBytes = wireBytes
			res.ExchangeBytes = framedTotal
		}
		switch cfg.Primitive {
		case MPI:
			res.CommSec = m.MPI.TransferTime(wireBytes, cfg.GPUs, len(net.Tensors))
		case NCCL:
			// NCCL ships the quantised volume in the paper's simulation
			// and the raw volume at full precision.
			res.CommSec = m.NCCL.TransferTime(wireBytes, cfg.GPUs, len(net.Tensors))
		}
	}

	if cfg.Overlap < 0 || cfg.Overlap >= 1 {
		return Result{}, fmt.Errorf("sim: overlap %v outside [0,1)", cfg.Overlap)
	}
	// Overlap hides communication behind compute, up to the configured
	// fraction of the compute window.
	hidden := cfg.Overlap * res.ComputeSec
	if hidden > res.CommSec {
		hidden = res.CommSec
	}
	res.IterSec = res.ComputeSec + res.QuantSec + res.CommSec - hidden
	res.SamplesPerSec = float64(batch) / res.IterSec
	if samples := net.DatasetSamples(); samples > 0 {
		res.EpochSec = float64(samples) / res.SamplesPerSec
	}
	return res, nil
}

// exchangeBytes predicts the bytes one full gradient exchange moves
// across all k peers, through the same arithmetic comm's fabrics are
// tested against. For MPI that is the reduce-and-broadcast stripe
// pattern under the plan's per-tensor codecs; for NCCL it is the
// full-precision ring (the volume a real ring actually ships — the
// paper's low-precision NCCL numbers scale it by the codec's
// compression, see comm.SimulatedRing).
func exchangeBytes(plan *quant.Plan, tensors []quant.TensorInfo, prim Primitive, k int, framed bool) int64 {
	if prim == NCCL {
		var total int64
		for _, ti := range tensors {
			total += comm.RingWireBytes(ti.Shape.Len(), k, framed)
		}
		return total
	}
	specs := make([]comm.TensorSpec, len(tensors))
	for i, ti := range tensors {
		specs[i] = comm.TensorSpec{
			Name:  ti.Name,
			N:     ti.Shape.Len(),
			Wire:  ti.Shape,
			Codec: plan.CodecFor(i),
		}
	}
	return comm.ReduceBroadcastWireBytes(specs, k, framed)
}

// quantTime prices encode/decode work for one exchange. Per worker, the
// MPI path touches each element three times (encode local stripes,
// decode/sum at the owner, re-encode the aggregate, decode the
// broadcast: n + (K−1)/K·n + n/K + n = 3n element passes), the NCCL
// simulation twice (encode + decode).
func quantTime(plan *quant.Plan, tensors []quant.TensorInfo, k KernelModel,
	prim Primitive, computeScale float64) float64 {
	passes := 3.0
	if prim == NCCL {
		passes = 2.0
	}
	var total float64
	for i, ti := range tensors {
		codec := plan.CodecFor(i)
		if _, fp := codec.(quant.FP32); fp {
			continue
		}
		n := ti.Shape.Len()
		group := codec.GroupSize(ti.Shape)
		groups := (n + group - 1) / group
		perElem := k.QSGDPerElem
		switch codec.(type) {
		case quant.OneBit, quant.OneBitReshaped:
			perElem = k.OneBitPerElem
		}
		total += (float64(n)*perElem + float64(groups)*k.PerGroup) * passes
	}
	return total / computeScale
}

// Scalability returns samples/sec relative to the 1-GPU full-precision
// run of the same network on the same machine — the y-axis of
// Figures 12–15.
func Scalability(r Result, net workload.Network, m workload.Machine) (float64, error) {
	base, err := Run(Config{Network: net, Machine: m, Primitive: MPI, GPUs: 1})
	if err != nil {
		return 0, err
	}
	return r.SamplesPerSec / base.SamplesPerSec, nil
}

// WithDummyParams returns a copy of net with one additional dense
// gradient tensor holding extra parameters and no additional compute —
// the "AlexNet with larger dummy models" device of Figure 16 (right).
func WithDummyParams(net workload.Network, extraParams int64) workload.Network {
	if extraParams <= 0 {
		return net
	}
	clone := net
	clone.Tensors = append(append([]quant.TensorInfo(nil), net.Tensors...),
		quant.TensorInfo{
			Name:  "dummy.W",
			Shape: quant.Shape{Rows: 4096, Cols: int(extraParams / 4096)},
		})
	clone.Name = net.Name + "+dummy"
	return clone
}
