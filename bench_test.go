// Benchmarks that regenerate every table and figure of the paper's
// evaluation, one benchmark per exhibit, plus ablation benches for the
// substitutions the reproduction makes. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig5 benchmarks perform real (scaled-down) training and report
// accuracy metrics; the Fig6–16 benchmarks drive the calibrated
// performance simulator and report paper-shape metrics such as
// speedups. Metrics surfaced via b.ReportMetric make the regenerated
// "rows" visible directly in benchmark output.
package repro

import (
	"testing"

	"repro/comm"
	"repro/internal/harness"
	"repro/internal/workload"
	"repro/quant"
	"repro/rng"
	"repro/sim"
)

// --- Figure 5: accuracy under low-precision gradients (real training) ---

func BenchmarkFig5_ImageAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := harness.RunImageAccuracy(harness.AccuracyOptions{
			Epochs: 6, TrainN: 384, TestN: 192,
			Codecs: []harness.LabelledCodec{
				{Label: "32bit", Codec: quant.FP32{}},
				{Label: "QSGD 4bit", Codec: quant.NewQSGD(4, 512, quant.MaxNorm)},
				{Label: "QSGD 2bit", Codec: quant.NewQSGD(2, 128, quant.MaxNorm)},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*study.Find("32bit").History.BestAccuracy, "fp32_acc_%")
		b.ReportMetric(100*study.Find("QSGD 4bit").History.BestAccuracy, "q4_acc_%")
		b.ReportMetric(100*study.Find("QSGD 2bit").History.BestAccuracy, "q2_acc_%")
	}
}

func BenchmarkFig5_LSTMAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := harness.RunSequenceAccuracy(harness.AccuracyOptions{
			Epochs: 6, TrainN: 384, TestN: 192,
			Codecs: []harness.LabelledCodec{
				{Label: "32bit", Codec: quant.FP32{}},
				{Label: "1bitSGD", Codec: quant.OneBit{}},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*study.Find("32bit").History.BestAccuracy, "fp32_acc_%")
		b.ReportMetric(100*study.Find("1bitSGD").History.BestAccuracy, "onebit_acc_%")
	}
}

// --- Figures 6–9: time per epoch ---

func benchEpochFigure(b *testing.B, m workload.Machine, prim sim.Primitive, gpus int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := harness.EpochTimeFigure(m, prim, gpus)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 5 {
			b.Fatal("wrong panel count")
		}
	}
	fp, err := harness.EpochTimeTable(workload.VGG19, m, prim, gpus)
	if err != nil {
		b.Fatal(err)
	}
	_ = fp
	fp32, _ := sim.Run(sim.Config{Network: workload.VGG19, Machine: m, Primitive: prim, GPUs: gpus})
	q4, _ := sim.Run(sim.Config{Network: workload.VGG19, Machine: m, Primitive: prim,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: gpus})
	b.ReportMetric(fp32.EpochHours(), "vgg_fp32_epoch_h")
	b.ReportMetric(fp32.EpochSec/q4.EpochSec, "vgg_q4_speedup")
}

func BenchmarkFig6_EC2MPIEpochTime(b *testing.B) {
	benchEpochFigure(b, workload.EC2P2, sim.MPI, 8)
}

func BenchmarkFig7_EC2NCCLEpochTime(b *testing.B) {
	benchEpochFigure(b, workload.EC2P2, sim.NCCL, 8)
}

func BenchmarkFig8_DGXMPIEpochTime(b *testing.B) {
	benchEpochFigure(b, workload.DGX1, sim.MPI, 8)
}

func BenchmarkFig9_DGXNCCLEpochTime(b *testing.B) {
	benchEpochFigure(b, workload.DGX1, sim.NCCL, 8)
}

// --- Figures 10–11: samples/second tables ---

func BenchmarkFig10_EC2MPITables(b *testing.B) {
	var tables int
	for i := 0; i < b.N; i++ {
		ts, err := harness.ThroughputFigure(workload.EC2P2, sim.MPI)
		if err != nil {
			b.Fatal(err)
		}
		tables = len(ts)
	}
	b.ReportMetric(float64(tables), "network_blocks")
}

func BenchmarkFig11_EC2NCCLTables(b *testing.B) {
	var tables int
	for i := 0; i < b.N; i++ {
		ts, err := harness.ThroughputFigure(workload.EC2P2, sim.NCCL)
		if err != nil {
			b.Fatal(err)
		}
		tables = len(ts)
	}
	b.ReportMetric(float64(tables), "network_blocks")
}

// --- Figures 12–15: scalability ---

func BenchmarkFig12to15_Scalability(b *testing.B) {
	configs := []struct {
		m    workload.Machine
		prim sim.Primitive
	}{
		{workload.EC2P2, sim.MPI},
		{workload.EC2P2, sim.NCCL},
		{workload.DGX1, sim.MPI},
		{workload.DGX1, sim.NCCL},
	}
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			if _, err := harness.ScalabilityFigure(cfg.m, cfg.prim); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Surface the AlexNet MPI 16-GPU scalability contrast the paper
	// highlights (quantised ≈8×, full precision <3×).
	fp, _ := sim.Run(sim.Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: sim.MPI, GPUs: 16})
	ob, _ := sim.Run(sim.Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: sim.MPI, Policy: quant.NewPolicy(quant.OneBit{}), GPUs: 16})
	base, _ := sim.Run(sim.Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: sim.MPI, GPUs: 1})
	b.ReportMetric(fp.SamplesPerSec/base.SamplesPerSec, "alexnet_fp32_scal16")
	b.ReportMetric(ob.SamplesPerSec/base.SamplesPerSec, "alexnet_1bit_scal16")
}

// --- Figure 16: cost/accuracy and the extrapolation sweep ---

func BenchmarkFig16_CostAccuracy(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		row, err := harness.CheapestTraining(workload.ResNet152)
		if err != nil {
			b.Fatal(err)
		}
		last = row.CostDollars
	}
	b.ReportMetric(last, "resnet152_cost_$")
}

func BenchmarkFig16_SpeedupVsRatio(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.SpeedupSweep()
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].Speedup
	}
	b.ReportMetric(last, "asymptotic_speedup")
}

// --- Ablations: the reproduction's own design choices ---

// BenchmarkAblation_BucketSize measures how QSGD encode cost and wire
// size move with bucket size — the accuracy/overhead lever of §5.1.
func BenchmarkAblation_BucketSize(b *testing.B) {
	r := rng.New(1)
	const n = 1 << 20
	src := make([]float32, n)
	for i := range src {
		src[i] = r.Norm(1)
	}
	shape := quant.Shape{Rows: 1024, Cols: n / 1024}
	for _, bucket := range []int{32, 128, 512, 8192} {
		b.Run(byteLabel("bucket", bucket), func(b *testing.B) {
			c := quant.NewQSGD(4, bucket, quant.MaxNorm)
			enc := c.NewEncoder(n, shape, 1)
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Encode(src)
			}
			b.ReportMetric(float64(c.EncodedBytes(n, shape)), "wire_bytes")
		})
	}
}

// BenchmarkAblation_NormChoice compares max-norm and 2-norm scaling.
func BenchmarkAblation_NormChoice(b *testing.B) {
	r := rng.New(2)
	const n = 1 << 20
	src := make([]float32, n)
	for i := range src {
		src[i] = r.Norm(1)
	}
	shape := quant.Shape{Rows: 1024, Cols: n / 1024}
	for _, norm := range []quant.Norm{quant.MaxNorm, quant.TwoNorm} {
		b.Run(norm.String(), func(b *testing.B) {
			c := quant.NewQSGD(4, 512, norm)
			enc := c.NewEncoder(n, shape, 1)
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Encode(src)
			}
		})
	}
}

// BenchmarkAblation_Reshaping contrasts classic column-wise 1bitSGD
// with the reshaped variant on the ResNet152 tensor inventory — the
// paper's §3.2 fix, worth ~4× end to end.
func BenchmarkAblation_Reshaping(b *testing.B) {
	for _, tc := range []struct {
		name  string
		codec quant.Codec
	}{
		{"classic", quant.OneBit{}},
		{"reshaped64", quant.NewOneBitReshaped(64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var r sim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = sim.Run(sim.Config{
					Network: workload.ResNet152, Machine: workload.EC2P2,
					Primitive: sim.MPI, Policy: quant.NewPolicy(tc.codec), GPUs: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.SamplesPerSec, "samples/s")
			b.ReportMetric(float64(r.WireBytes)/1e6, "wire_MB")
		})
	}
}

// BenchmarkAblation_Overlap sweeps the double-buffering overlap knob
// (§3.2.1): hiding communication behind compute shrinks the AlexNet
// MPI iteration until the compute floor is reached.
func BenchmarkAblation_Overlap(b *testing.B) {
	for _, ov := range []float64{0, 0.25, 0.5, 0.9} {
		b.Run("overlap="+itoa(int(ov*100))+"pct", func(b *testing.B) {
			var r sim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = sim.Run(sim.Config{
					Network: workload.AlexNet, Machine: workload.EC2P2,
					Primitive: sim.MPI, GPUs: 8, Overlap: ov,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.SamplesPerSec, "samples/s")
		})
	}
}

// BenchmarkAblation_Primitive moves real encoded bytes through the two
// aggregation algorithms over the in-process fabric.
func BenchmarkAblation_Primitive(b *testing.B) {
	const n, k = 1 << 16, 4
	r := rng.New(3)
	grads := make([][]float32, k)
	for w := range grads {
		grads[w] = make([]float32, n)
		for i := range grads[w] {
			grads[w][i] = r.Norm(1)
		}
	}
	runOnce := func(red comm.Reducer) {
		done := make(chan error, k)
		for w := 0; w < k; w++ {
			go func(w int) {
				g := append([]float32(nil), grads[w]...)
				done <- red.Reduce(w, 0, g)
			}(w)
		}
		for w := 0; w < k; w++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mpi-rb-fp32", func(b *testing.B) {
		f := comm.NewFabric(k)
		red := comm.NewReduceBroadcast(f, []comm.TensorSpec{
			{Name: "g", N: n, Wire: quant.Shape{Rows: 256, Cols: n / 256}, Codec: quant.FP32{}},
		}, 1)
		b.SetBytes(4 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce(red)
		}
	})
	b.Run("mpi-rb-qsgd4", func(b *testing.B) {
		f := comm.NewFabric(k)
		red := comm.NewReduceBroadcast(f, []comm.TensorSpec{
			{Name: "g", N: n, Wire: quant.Shape{Rows: 256, Cols: n / 256},
				Codec: quant.NewQSGD(4, 512, quant.MaxNorm)},
		}, 1)
		b.SetBytes(4 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce(red)
		}
	})
	b.Run("nccl-ring-fp32", func(b *testing.B) {
		red := comm.NewRing(comm.NewFabric(k))
		b.SetBytes(4 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce(red)
		}
	})
}

// byteLabel renders sub-benchmark names like "bucket=512".
func byteLabel(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Precision policies: wire volume across the paper's codec ladder
// and mixed per-layer schemes (the study the policy grammar opens) ---

// BenchmarkPolicyWireBytes prices one AlexNet gradient exchange under
// every paper codec and two mixed per-layer policies, reporting the
// encoded volume of one model copy, the full K=8 framed exchange, and
// the compression over raw float32 — the traffic side of the
// accuracy-vs-traffic frontier per-layer assignment moves along.
func BenchmarkPolicyWireBytes(b *testing.B) {
	net := workload.AlexNet
	var policies []string
	for _, c := range quant.PaperCodecs() {
		policies = append(policies, c.Name())
	}
	policies = append(policies,
		// Sparse giant FC layers, raw biases, 4-bit elsewhere.
		"qsgd4b512;fc6=topk0.001;fc7=topk0.001;*.b=32bit",
		// Conservative 8-bit convolutions under a 4-bit default.
		"qsgd4b512;minfrac=1;conv*=qsgd8b512",
	)
	const k = 8
	for _, name := range policies {
		policy := quant.MustParsePolicy(name)
		b.Run(name, func(b *testing.B) {
			var plan *quant.Plan
			var exchange int64
			for i := 0; i < b.N; i++ {
				plan = quant.NewPlan(policy, net.Tensors)
				specs := make([]comm.TensorSpec, len(net.Tensors))
				for t, ti := range net.Tensors {
					specs[t] = comm.TensorSpec{Name: ti.Name, N: ti.Shape.Len(),
						Wire: ti.Shape, Codec: plan.CodecFor(t)}
				}
				exchange = comm.ReduceBroadcastWireBytes(specs, k, true)
			}
			b.ReportMetric(float64(plan.WireBytes())/1e6, "wire_MB/copy")
			b.ReportMetric(float64(exchange)/1e6, "exchange_MB@8")
			b.ReportMetric(float64(plan.RawBytes())/float64(plan.WireBytes()), "compression_x")
		})
	}
}
