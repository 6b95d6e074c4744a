// Package parallel implements the paper's Algorithm 1: synchronous
// data-parallel SGD across K workers (simulated GPUs), each holding a
// full model replica, computing gradients over its shard of the global
// minibatch, and exchanging them through a communication primitive
// under a precision policy (Config.Policy — per-tensor codecs via
// quant.NewPlan).
//
// Workers are real goroutines moving real encoded bytes through
// repro/comm; replicas stay bit-identical because every worker adopts
// the same aggregated wire bytes. This is the engine behind the
// reproduction's accuracy experiments (paper Figure 5).
//
// In cluster mode (Config.Fabric/Rank) the trainer is one rank of a
// multi-process world and cooperates with the health plane
// (Config.Monitor, repro/health): a peer-death verdict aborts the
// fabric and surfaces from Run as health.ErrPeerDead, Config.
// StepDeadline bounds a wedged step with ErrStepDeadline, and
// StepStats attributes each synchronous barrier to its slowest rank
// from timings the heartbeats carry.
package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/comm"
	"repro/data"
	"repro/elastic"
	"repro/health"
	"repro/nn"
	"repro/obs"
	"repro/quant"
	"repro/rng"
)

// Primitive selects the aggregation algorithm.
type Primitive int

const (
	// MPI is the reduce-and-broadcast pattern; it carries quantised
	// payloads natively (§2.4.1).
	MPI Primitive = iota
	// NCCL is the ring allreduce; its sum is hardwired to full precision,
	// so quantised configurations run the paper's byte-volume simulation
	// (§4.4) while reducing exactly.
	NCCL
)

// String names the primitive as the paper does.
func (p Primitive) String() string {
	if p == NCCL {
		return "NCCL"
	}
	return "MPI"
}

// Config describes a data-parallel training run.
type Config struct {
	// Workers is K, the number of simulated GPUs.
	Workers int
	// Policy is the precision policy: base codec, small-matrix
	// exemption target and per-tensor pattern rules (see quant.Policy
	// and quant.ParsePolicy). Nil means full precision; an unset Base
	// or MinFrac defaults to full precision and the paper's 0.99.
	Policy *quant.Policy
	// Primitive selects MPI reduce-and-broadcast or NCCL ring.
	Primitive Primitive
	// BatchSize is the global minibatch size, sharded over workers.
	BatchSize int
	// Epochs is the number of passes over the training set.
	Epochs int
	// Schedule supplies the learning rate per epoch.
	Schedule nn.Schedule
	// Momentum is the SGD momentum (the paper's default is 0.9).
	Momentum float32
	// WeightDecay is the L2 regularisation coefficient (0 disables it).
	WeightDecay float32
	// UseTCP moves gradients over real loopback TCP sockets instead of
	// in-process channels — same aggregation algorithms, real kernel
	// boundary (see comm.TCPFabric). Ignored when Fabric is set.
	UseTCP bool
	// Fabric supplies an externally established transport — typically
	// the mesh a cluster rendezvous built (repro/cluster). When set,
	// the trainer runs as the single rank Rank of a Workers-sized
	// world: it holds one local replica, drives one worker goroutine,
	// and exchanges gradients with the other ranks' processes over the
	// mesh. Fabric.K() must equal Workers. The trainer takes ownership
	// and closes the fabric on Close.
	Fabric comm.Transport
	// Rank is this process's rank in [0, Workers) when Fabric is set;
	// ignored otherwise.
	Rank int
	// Monitor attaches the cluster's health plane (see repro/health and
	// cluster.Session.Monitor). The trainer reports its per-step
	// timings to it (straggler telemetry piggybacks on heartbeats),
	// folds the peers' reports into StepStats, watches for a death
	// verdict between and during steps, and closes the monitor — whose
	// parting bye distinguishes this rank's clean shutdown from a death
	// — in Close. Nil outside cluster mode.
	Monitor *health.Monitor
	// HealthHandler is invoked with the death verdict whenever the
	// attached health plane declares a peer dead — once per verdict,
	// which in an elastic session can mean once per repaired death.
	// The trainer registers it on Monitor at construction and again on
	// every replacement monitor a rejoin round installs, so the
	// callback keeps firing across repairs (registering directly on
	// the original monitor would go dark after the first one).
	HealthHandler func(error)
	// Elastic attaches the session's rejoin controller (typically the
	// cluster.Session itself — see repro/elastic). When set, a
	// health-plane death verdict becomes a recoverable event: instead
	// of surfacing health.ErrPeerDead, the trainer quiesces at the step
	// barrier its abort unwound to, asks the controller to repair the
	// world (re-rendezvous, replacement admission, state transfer),
	// swaps in the rebuilt fabric and monitor, and resumes training at
	// the agreed step. Only meaningful in cluster mode (Fabric set);
	// nil keeps PR 4's fatal-abort behaviour.
	Elastic elastic.Rejoiner
	// MaxRejoins caps how many rejoin rounds this trainer tolerates
	// before a further death verdict is surfaced (0 means
	// elastic.DefaultMaxRejoins; negative means unlimited).
	MaxRejoins int
	// StepDeadline bounds the wall time of one synchronous step
	// (compute + exchange); 0 disables it. On expiry the trainer aborts
	// the fabric and Run returns an ErrStepDeadline — the straggler
	// guard rail for a peer that is alive enough to heartbeat but too
	// slow (or wedged) to ever finish its exchange. Effective on
	// closable fabrics (TCP, cluster mesh); the in-process channel
	// fabric cannot interrupt a blocked exchange.
	StepDeadline time.Duration
	// ClipNorm bounds the global gradient L2 norm after aggregation
	// (0 disables clipping). CNTK's recurrent recipes clip gradients;
	// clipping after the exchange keeps replicas bit-identical.
	ClipNorm float32
	// Seed fixes all randomness (init, shuffling, stochastic rounding).
	Seed uint64
	// EvalEvery evaluates test accuracy every this many epochs
	// (default 1).
	EvalEvery int
	// Tracer, when set, receives step-phase spans: a compute and a
	// barrier span per local rank per step from the trainer itself, plus
	// the quantise/encode/transfer/decode fine structure from the
	// reducer (comm.Traceable). Nil disables tracing; the training
	// trajectory and wire traffic are bit-identical either way (pinned
	// by TestObsDisabledDigestParity).
	Tracer *obs.Tracer
	// Metrics, when set, registers the trainer's operational series:
	// cumulative wire and control bytes, per-peer link traffic, step
	// counters and phase histograms, health phi per peer. Nil disables
	// registration; all instruments are obs nil-safe.
	Metrics *obs.Registry
	// TelemetryEvery samples convergence telemetry every this many
	// completed steps (0 disables it): the step's mean loss, each
	// tensor's aggregated-gradient L2/inf norms, and the live
	// quantisation RMSE/compression of the negotiated codecs
	// (quant.MeasureError over a scratch copy of the gradients — the
	// training bits are untouched; digest and TCP byte parity with
	// telemetry on are pinned by test). Samples feed the registry's
	// lpsgd_telemetry_* gauges and, in cluster mode, ship to every peer
	// over the heartbeat control links (Monitor.ReportTelemetry, bytes
	// under ControlBytes) for cluster-wide aggregation by
	// cluster.TelemetryHub. Negative is rejected.
	TelemetryEvery int
	// TelemetryObserver, when set with a Monitor attached, receives
	// every telemetry snapshot the control plane sees — the local
	// rank's own and each peer's (cluster.TelemetryHub.Observe is the
	// intended consumer). The trainer registers it on the monitor at
	// construction and again on every replacement monitor a rejoin
	// round installs, the same liveness contract as HealthHandler.
	TelemetryObserver func(peer int, s health.TelemetrySnapshot)
}

func (c *Config) fillDefaults() error {
	if c.Workers <= 0 {
		return fmt.Errorf("parallel: Workers must be positive, got %d", c.Workers)
	}
	if c.BatchSize < c.Workers {
		return fmt.Errorf("parallel: batch %d smaller than %d workers", c.BatchSize, c.Workers)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("parallel: Epochs must be positive")
	}
	// Defaults are filled into a copy, never through the caller's
	// pointer: the same policy value may configure several trainers.
	var p quant.Policy
	if c.Policy != nil {
		p = *c.Policy
	}
	if p.Base == nil {
		p.Base = quant.FP32{}
	}
	if p.MinFrac <= 0 {
		p.MinFrac = quant.DefaultMinFrac
	}
	c.Policy = &p
	// No Name() round-trip validation here: the engine happily trains
	// custom codecs whose names the quant grammar cannot spell (they
	// only break where names cross a wire — the lpsgd facade and the
	// cluster rendezvous validate at those boundaries).
	if c.Schedule == nil {
		c.Schedule = nn.ConstantLR(0.1)
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.TelemetryEvery < 0 {
		return fmt.Errorf("parallel: TelemetryEvery must be non-negative, got %d", c.TelemetryEvery)
	}
	return nil
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch        int
	TrainLoss    float64
	TestAccuracy float64 // top-1; negative when not evaluated this epoch
	TestTop5     float64 // top-5; negative when not evaluated this epoch
	LR           float32
	WireBytes    int64 // cumulative fabric bytes at epoch end
	Elapsed      time.Duration
	// SlowestRank is the rank most often attributed as the epoch's
	// straggler — the peer gating the synchronous barrier (-1 when no
	// attribution was possible). In cluster mode the attribution folds
	// in the peers' step timings carried by the health plane's
	// heartbeats.
	SlowestRank int
}

// StepStats is the straggler report of one synchronous step: per-rank
// compute and exchange wall time, and which rank gated the barrier.
// The local process's ranks are measured directly; in cluster mode the
// other ranks' entries come from the step reports their heartbeats
// carried (one heartbeat interval stale at worst), with Known marking
// the ranks a timing exists for.
type StepStats struct {
	// Step counts completed synchronous steps, 1-based.
	Step int64
	// Compute[r] and Exchange[r] are rank r's forward+backward and
	// gradient-exchange wall times for its most recent reported step.
	Compute  []time.Duration
	Exchange []time.Duration
	// Known[r] reports whether rank r's timings are populated.
	Known []bool
	// Slowest is the known rank with the largest compute time, -1 when
	// nothing is known. Compute is the discriminating signal: the
	// exchange is a blocking collective, so a fast rank's exchange time
	// is mostly spent waiting for the straggler and every rank's
	// compute+exchange sum comes out nearly equal. Attributing by
	// compute names the rank that arrived at the barrier last — the
	// same rank the discrete-event simulator (repro/sim) charges with
	// gating the step.
	Slowest int
}

// ErrStepDeadline is returned by Run when one synchronous step exceeds
// Config.StepDeadline: some participant — possibly this one — was too
// slow for the configured bound, and the fabric was aborted so every
// local exchange unblocked.
type ErrStepDeadline struct {
	// Rank is the local rank that observed the expiry.
	Rank int
	// Step is the 1-based index of the step that timed out.
	Step int64
	// Deadline is the configured bound.
	Deadline time.Duration
}

// Error implements error.
func (e ErrStepDeadline) Error() string {
	return fmt.Sprintf("parallel: rank %d: step %d exceeded the %v step deadline",
		e.Rank, e.Step, e.Deadline)
}

// History is the full record of a run.
type History struct {
	Config Config
	Epochs []EpochStats
	// FinalAccuracy is the last measured test accuracy.
	FinalAccuracy float64
	// BestAccuracy is the highest test accuracy seen.
	BestAccuracy float64
	// TotalWireBytes is the fabric traffic of the whole run.
	TotalWireBytes int64
}

// EpochsToReach returns the first epoch (1-based) whose test accuracy
// meets target, or -1 if never reached — the paper's convergence-speed
// metric.
func (h *History) EpochsToReach(target float64) int {
	for _, e := range h.Epochs {
		if e.TestAccuracy >= target {
			return e.Epoch + 1
		}
	}
	return -1
}

// Trainer runs synchronous data-parallel SGD. In the default
// single-process mode it owns all K replicas and drives them from K
// goroutines; with Config.Fabric set it is one rank of a multi-process
// world and owns only the local replica — the remaining ranks live in
// other OS processes reachable over the mesh.
type Trainer struct {
	cfg Config
	// ranks lists the global ranks this process drives; replicas[i],
	// opts[i] and losses[i] belong to ranks[i].
	ranks    []int
	replicas []*nn.Network
	opts     []*nn.SGD
	losses   []*nn.SoftmaxCrossEntropy
	fabric   comm.Transport
	reducer  comm.Reducer
	plan     *quant.Plan
	specs    []comm.TensorSpec
	monitor  *health.Monitor

	// stepIdx counts completed synchronous steps; statsMu guards it,
	// the elastic cursor, and the fabric/monitor identities (which a
	// rejoin round swaps while metric scrapes read them).
	stepIdx int64
	statsMu sync.Mutex
	// lastStats is the latest straggler report, published as an
	// immutable snapshot: recordStep builds a fresh StepStats each step
	// and stores the pointer, so StepStats() readers are race-clean by
	// construction — no lock, no torn reads, nothing shared mutable.
	lastStats atomic.Pointer[StepStats]

	// tracer/metrics are the observability plane (both may be nil).
	tracer       *obs.Tracer
	metrics      *obs.Registry
	computeHist  *obs.Histogram
	exchangeHist *obs.Histogram
	beatHist     *obs.Histogram
	// Convergence-telemetry instruments, registered when
	// Config.TelemetryEvery > 0 (see captureTelemetry). teleScratch is
	// the reusable gradient copy quant.MeasureError probes so the
	// codecs never see — let alone touch — live training state.
	lossGauge   *obs.Gauge
	teleStepG   *obs.Gauge
	gradL2G     []*obs.Gauge
	gradInfG    []*obs.Gauge
	rmseG       []*obs.Gauge
	compG       []*obs.Gauge
	teleScratch []float32

	// Elastic cursor (guarded by statsMu): where in the data schedule
	// the last completed step happened. curEpoch is the running epoch,
	// lastBatch the index of the last completed batch within it (-1
	// before the first), epochShuffleState the shuffle RNG's state at
	// the epoch's start — together they pin the exact resume position a
	// snapshot carries.
	curEpoch          int
	lastBatch         int
	epochShuffleState uint64
	// restored is a pending resume cursor: a snapshot installed by
	// Restore (a replacement before Run) or by a rejoin round (a
	// survivor catching up), consumed by the training loop.
	restored *elastic.Snapshot
	// rejoins counts completed rejoin rounds against Config.MaxRejoins;
	// wireBase accumulates the traffic of fabrics retired by those
	// rounds so byte accounting stays cumulative across repairs.
	rejoins  int
	wireBase int64
}

// totalWireBytes returns the bytes this process's ranks have sent over
// every fabric incarnation of the run. statsMu covers the fabric swap
// a rejoin performs, so a concurrent metrics scrape never reads a
// half-retired incarnation.
func (t *Trainer) totalWireBytes() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.wireBase + t.fabric.TotalBytes()
}

// WireBytes returns the cumulative data-mesh payload bytes this
// process's ranks have sent — the number EpochStats.WireBytes records
// and the lpsgd_wire_tx_bytes_total metric exports, from one counter.
func (t *Trainer) WireBytes() int64 { return t.totalWireBytes() }

// ControlBytes returns the cumulative health-plane bytes this rank has
// written (0 outside cluster mode) — the lpsgd_control_bytes_total
// metric, kept beside WireBytes so the two wire namespaces are read
// through one surface and can never disagree with /metrics.
func (t *Trainer) ControlBytes() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.monitor == nil {
		return 0
	}
	return t.monitor.ControlBytes()
}

// peerTraffic reads the per-peer link accounting of the current fabric
// incarnation (zero when the fabric does not expose it).
func (t *Trainer) peerTraffic(p int) comm.PeerTraffic {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if pa, ok := t.fabric.(comm.PeerAccounter); ok {
		return pa.PeerTraffic(p)
	}
	return comm.PeerTraffic{}
}

// monitorPhi samples the health plane's suspicion level for a peer in
// milli-phi (0 when no monitor is attached).
func (t *Trainer) monitorPhi(p int) int64 {
	t.statsMu.Lock()
	m := t.monitor
	t.statsMu.Unlock()
	if m == nil {
		return 0
	}
	return int64(m.Phi(p) * 1000)
}

// NewTrainer builds the local replicas with identical initial weights
// using build, which must be deterministic in its RNG argument. In
// single-process mode that is all K replicas; in cluster mode
// (cfg.Fabric set) it is the one replica of cfg.Rank, bit-identical to
// every other rank's because each process seeds build with the same
// cfg.Seed.
func NewTrainer(build func(r *rng.RNG) *nn.Network, cfg Config) (*Trainer, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, monitor: cfg.Monitor, tracer: cfg.Tracer, metrics: cfg.Metrics}
	if cfg.Fabric != nil {
		if k := cfg.Fabric.K(); k != cfg.Workers {
			return nil, fmt.Errorf("parallel: fabric spans %d ranks, config wants %d workers", k, cfg.Workers)
		}
		if cfg.Rank < 0 || cfg.Rank >= cfg.Workers {
			return nil, fmt.Errorf("parallel: rank %d outside world of %d", cfg.Rank, cfg.Workers)
		}
		t.ranks = []int{cfg.Rank}
	} else {
		for w := 0; w < cfg.Workers; w++ {
			t.ranks = append(t.ranks, w)
		}
	}
	for range t.ranks {
		// Same init seed for every replica: weights start identical —
		// across goroutines here and across OS processes in cluster
		// mode. (Per-worker stochastic behaviour such as dropout uses
		// layer RNGs forked from this same stream; masks may coincide
		// across replicas, which only makes shards more, not less,
		// comparable.)
		net := build(rng.New(cfg.Seed))
		t.replicas = append(t.replicas, net)
		opt := nn.NewSGD(net.Params(), cfg.Schedule.LRAt(0), cfg.Momentum)
		opt.SetWeightDecay(cfg.WeightDecay)
		t.opts = append(t.opts, opt)
		t.losses = append(t.losses, nn.NewSoftmaxCrossEntropy())
	}
	infos := t.replicas[0].TensorInfos()
	t.plan = quant.NewPlan(cfg.Policy, infos)
	switch {
	case cfg.Fabric != nil:
		t.fabric = cfg.Fabric
	case cfg.UseTCP:
		tcp, err := comm.NewTCPFabric(cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("parallel: tcp fabric: %w", err)
		}
		t.fabric = tcp
	default:
		t.fabric = comm.NewFabric(cfg.Workers)
	}
	params := t.replicas[0].Params()
	for i, p := range params {
		c := t.plan.CodecFor(i)
		t.specs = append(t.specs, comm.TensorSpec{
			Name:  p.Name,
			N:     p.Grad.Len(),
			Wire:  p.WireShape,
			Codec: c,
		})
	}
	if err := t.buildReducer(); err != nil {
		t.Close()
		return nil, err
	}
	if cfg.Elastic != nil && cfg.Fabric == nil {
		t.Close()
		return nil, fmt.Errorf("parallel: elastic sessions need cluster mode (Config.Fabric); a single-process trainer has no rank to lose")
	}
	if cfg.HealthHandler != nil && t.monitor != nil {
		t.monitor.OnVerdict(cfg.HealthHandler)
	}
	t.registerMetrics()
	t.wireMonitorObs()
	t.lastBatch = -1
	return t, nil
}

// registerMetrics declares the trainer's series on Config.Metrics. A
// nil registry makes every call a no-op (nil-safe handles), so the
// method runs unconditionally. Callback-backed series read through the
// trainer's guarded accessors, which keeps them correct across the
// fabric and monitor swaps of elastic rejoin rounds without any
// re-registration.
func (t *Trainer) registerMetrics() {
	m := t.metrics
	m.Func("lpsgd_wire_tx_bytes_total",
		"Cumulative data-mesh payload bytes sent by this process's ranks (all fabric incarnations).",
		t.WireBytes)
	m.Func("lpsgd_control_bytes_total",
		"Cumulative health-plane control bytes written by this rank.",
		t.ControlBytes)
	m.Func("lpsgd_steps_total", "Completed synchronous steps.", t.currentStep)
	m.Gauge("lpsgd_world_size", "Configured world size K.").Set(int64(t.cfg.Workers))
	m.Gauge("lpsgd_rank", "Lowest rank this process drives.").Set(int64(t.ranks[0]))
	m.Gauge("lpsgd_policy_wire_bytes",
		"Encoded bytes one local gradient set occupies under the policy.").Set(t.plan.WireBytes())
	m.Gauge("lpsgd_policy_raw_bytes",
		"Raw fp32 bytes of one local gradient set (wire/raw is the achieved compression ratio).").Set(t.plan.RawBytes())
	// Step-time histograms: 1µs..~4s exponential nanosecond buckets.
	buckets := obs.ExpBuckets(1000, 4, 12)
	t.computeHist = m.Histogram("lpsgd_step_compute_ns",
		"Per-step forward+backward wall time of the local ranks.", buckets)
	t.exchangeHist = m.Histogram("lpsgd_step_exchange_ns",
		"Per-step gradient-exchange wall time of the local ranks.", buckets)
	// Per-peer link traffic and suspicion, cluster mode only (the
	// in-process fabrics have no peer links worth splitting).
	if t.cfg.Fabric != nil {
		for p := 0; p < t.cfg.Workers; p++ {
			if p == t.ranks[0] {
				continue
			}
			p := p
			lbl := obs.Label{Key: "peer", Value: strconv.Itoa(p)}
			m.Func("lpsgd_peer_tx_bytes_total", "Payload bytes sent to the peer.",
				func() int64 { return t.peerTraffic(p).TxBytes }, lbl)
			m.Func("lpsgd_peer_rx_bytes_total", "Payload bytes received from the peer.",
				func() int64 { return t.peerTraffic(p).RxBytes }, lbl)
			m.Func("lpsgd_peer_tx_frames_total", "Frames sent to the peer.",
				func() int64 { return t.peerTraffic(p).TxFrames }, lbl)
			m.Func("lpsgd_peer_rx_frames_total", "Frames received from the peer.",
				func() int64 { return t.peerTraffic(p).RxFrames }, lbl)
			m.Func("lpsgd_health_phi_milli", "Failure-detector suspicion level for the peer, x1000.",
				func() int64 { return t.monitorPhi(p) }, lbl)
		}
	}
	// Bridge the tracer's spans into per-phase /metrics histograms.
	if t.tracer != nil && t.metrics != nil {
		t.tracer.SetPhaseHistograms(obs.AttachHistograms(m, "lpsgd_phase_ns",
			"Traced span durations by step phase.", buckets))
	}
	t.beatHist = m.Histogram("lpsgd_heartbeat_gap_ns",
		"Gap between consecutive heartbeats from any peer.",
		obs.ExpBuckets(1_000_000, 2, 14))
	// Convergence-telemetry gauges, sampled every TelemetryEvery steps.
	// The registry is int64-only by design, so the floats are published
	// fixed-point (the wire snapshot keeps full float64 precision).
	if t.cfg.TelemetryEvery > 0 {
		t.teleStepG = m.Gauge("lpsgd_telemetry_step",
			"Step index of the latest convergence-telemetry sample.")
		t.lossGauge = m.Gauge("lpsgd_telemetry_loss_micro",
			"Sampled mean minibatch loss of the local ranks, x1e6.")
		for _, spec := range t.specs {
			lbl := obs.Label{Key: "tensor", Value: spec.Name}
			t.gradL2G = append(t.gradL2G, m.Gauge("lpsgd_telemetry_grad_l2_micro",
				"Sampled aggregated-gradient L2 norm, x1e6.", lbl))
			t.gradInfG = append(t.gradInfG, m.Gauge("lpsgd_telemetry_grad_inf_micro",
				"Sampled aggregated-gradient max-absolute value, x1e6.", lbl))
			t.rmseG = append(t.rmseG, m.Gauge("lpsgd_telemetry_quant_rmse_nano",
				"Live-measured quantisation RMSE against the negotiated codec, x1e9.", lbl))
			t.compG = append(t.compG, m.Gauge("lpsgd_telemetry_compression_milli",
				"Achieved raw/wire compression ratio of the tensor's codec, x1000.", lbl))
		}
	}
}

// wireMonitorObs attaches the observability hooks to the current
// monitor. Called at construction and again after every rejoin round
// (replacement monitors start bare).
func (t *Trainer) wireMonitorObs() {
	if t.monitor == nil {
		return
	}
	if t.metrics != nil {
		h := t.beatHist
		t.monitor.OnHeartbeat(func(_ int, gap time.Duration) { h.Observe(int64(gap)) })
	}
	if t.tracer != nil {
		tr := t.tracer
		rank := t.ranks[0]
		t.monitor.OnVerdict(func(error) {
			now := tr.Now()
			tr.Record(rank, obs.PhaseControl, "verdict", -1, 0, now, 0)
		})
	}
	if t.cfg.TelemetryObserver != nil {
		t.monitor.OnTelemetry(t.cfg.TelemetryObserver)
	}
}

// buildReducer (re)builds the aggregation primitive over the current
// fabric — at construction, and again after a rejoin round replaced
// the mesh. Encoder state starts fresh either way: stochastic streams
// are step-keyed (comm.StepKeyed), and error-feedback residuals reset
// to zero on every rank in lockstep.
func (t *Trainer) buildReducer() error {
	cfg := t.cfg
	switch cfg.Primitive {
	case MPI:
		t.reducer = comm.NewReduceBroadcastLocal(t.fabric, t.specs, cfg.Seed, t.ranks)
	case NCCL:
		if t.plan.FullPrecision() || cfg.Workers == 1 {
			t.reducer = comm.NewRing(t.fabric)
		} else {
			frac := float64(t.plan.WireBytes()) / float64(t.plan.RawBytes())
			if frac > 1 {
				return fmt.Errorf("parallel: policy %s expands this model's wire volume (%.2fx raw); the NCCL byte-volume simulation needs a compressing policy — use the MPI primitive instead", cfg.Policy.Name(), frac)
			}
			t.reducer = comm.NewSimulatedRing(t.fabric, frac)
		}
	default:
		return fmt.Errorf("parallel: unknown primitive %d", cfg.Primitive)
	}
	if tb, ok := t.reducer.(comm.Traceable); ok {
		tb.SetTracer(t.tracer)
	}
	return nil
}

// Close releases the fabric's resources (socket connections for the
// TCP transport; a no-op for the in-process fabric). In cluster mode
// the health monitor closes first: its parting bye tells every peer
// this rank is departing cleanly, so the sockets vanishing moments
// later is not mistaken for a death. A closed trainer must not Run
// again.
func (t *Trainer) Close() error {
	if t.monitor != nil {
		t.monitor.Close()
	}
	if c, ok := t.fabric.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// abortFabric interrupts every blocked exchange with err. RemoteFabric
// delivers the typed error; other closable fabrics fall back to
// ErrClosed semantics; the in-process channel fabric has no interrupt
// path (its exchanges cannot wedge without a local bug).
func (t *Trainer) abortFabric(err error) bool {
	switch f := t.fabric.(type) {
	case interface{ Abort(error) }:
		f.Abort(err)
		return true
	case io.Closer:
		f.Close()
		return true
	}
	return false
}

// StepStats returns the straggler report of the most recent completed
// (or timing-out) synchronous step. Before the first step it is zero
// with Slowest == -1. The returned snapshot is immutable once
// published — recordStep builds a fresh value per step and swaps an
// atomic pointer — so concurrent callers during Run are race-free by
// construction; the slices are defensively copied only because the
// returned struct is mutable in the caller's hands.
func (t *Trainer) StepStats() StepStats {
	p := t.lastStats.Load()
	if p == nil {
		return StepStats{Slowest: -1}
	}
	s := *p
	s.Compute = append([]time.Duration(nil), s.Compute...)
	s.Exchange = append([]time.Duration(nil), s.Exchange...)
	s.Known = append([]bool(nil), s.Known...)
	return s
}

// Plan exposes the per-tensor codec assignment (for reporting).
func (t *Trainer) Plan() *quant.Plan { return t.plan }

// Policy returns the precision policy the trainer runs under — the
// negotiated one in cluster mode, the configured (or compiled-from-
// deprecated-fields) one otherwise.
func (t *Trainer) Policy() *quant.Policy { return t.plan.Policy }

// Rank returns the lowest rank this process drives: the cluster rank
// in multi-process mode, 0 when the trainer owns the whole world.
func (t *Trainer) Rank() int { return t.ranks[0] }

// World returns the global worker count K, whether the ranks live in
// this process or across a cluster.
func (t *Trainer) World() int { return t.cfg.Workers }

// Reducer exposes the aggregation primitive (for reporting).
func (t *Trainer) Reducer() comm.Reducer { return t.reducer }

// Monitor exposes the attached health monitor (nil outside cluster
// mode) — for registering verdict handlers or reading raw peer
// telemetry; StepStats is the digested view.
func (t *Trainer) Monitor() *health.Monitor { return t.monitor }

// Model returns replica 0, the canonical model.
func (t *Trainer) Model() *nn.Network { return t.replicas[0] }

// SaveCheckpoint writes the canonical replica's weights in the
// nn.Network binary checkpoint format.
func (t *Trainer) SaveCheckpoint(w io.Writer) error {
	return t.replicas[0].Save(w)
}

// LoadCheckpoint restores weights into every replica, preserving the
// synchronous-SGD invariant that all replicas are bit-identical. In a
// cluster, every rank must load the same checkpoint bytes (warm-start:
// the -load flag of the CLIs). Weights only — optimiser momentum, the
// data cursor and step counters start fresh; for a resume that is
// bit-identical to an uninterrupted run, use SaveState/LoadState.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	if err := t.replicas[0].Load(r); err != nil {
		return err
	}
	for w := 1; w < len(t.replicas); w++ {
		if err := t.replicas[w].CopyWeightsFrom(t.replicas[0]); err != nil {
			return err
		}
	}
	return nil
}

// makeSnapshot captures the full elastic session state at the current
// step barrier: weights, optimiser velocity, hyperparameters, the
// step counter and the data-shard cursor. It is the donor-side hook of
// a rejoin round and the writer behind SaveState. The trainer must be
// quiescent (between steps) when it runs.
func (t *Trainer) makeSnapshot() (*elastic.Snapshot, error) {
	snapStart := t.tracer.Now()
	t.statsMu.Lock()
	step, epoch, batch, shuf := t.stepIdx, t.curEpoch, t.lastBatch, t.epochShuffleState
	t.statsMu.Unlock()
	var params bytes.Buffer
	if err := t.replicas[0].Save(&params); err != nil {
		return nil, err
	}
	opt := t.opts[0]
	var vel [][]float32
	for _, v := range opt.Velocity() {
		vel = append(vel, append([]float32(nil), v.Data...))
	}
	snap := &elastic.Snapshot{
		Seed:         t.cfg.Seed,
		World:        t.cfg.Workers,
		Policy:       t.plan.Policy.Name(),
		Step:         step,
		Epoch:        epoch,
		Batch:        batch,
		ShuffleState: shuf,
		Momentum:     opt.Momentum(),
		WeightDecay:  opt.WeightDecay(),
		Params:       params.Bytes(),
		Velocity:     vel,
	}
	t.tracer.Record(t.ranks[0], obs.PhaseControl, "snapshot", -1, int64(len(snap.Params)), snapStart, t.tracer.Now()-snapStart)
	return snap, nil
}

// installSnapshot validates a snapshot against this trainer's
// configuration and installs it: weights into every replica, velocity
// into every optimiser, the step counter, and a pending resume cursor
// the training loop consumes. It is the catch-up hook of a rejoin
// round and the reader behind LoadState/Restore.
func (t *Trainer) installSnapshot(snap *elastic.Snapshot) error {
	restoreStart := t.tracer.Now()
	cfg := t.cfg
	if snap.Seed != cfg.Seed {
		return fmt.Errorf("parallel: snapshot from seed %d cannot resume a seed-%d run (the seed keys the data order and every stochastic stream)", snap.Seed, cfg.Seed)
	}
	if snap.World != cfg.Workers {
		return fmt.Errorf("parallel: snapshot of a %d-rank world, this trainer runs %d", snap.World, cfg.Workers)
	}
	if name := t.plan.Policy.Name(); snap.Policy != name {
		return fmt.Errorf("parallel: snapshot trained under policy %q, this trainer runs %q", snap.Policy, name)
	}
	if m := t.opts[0].Momentum(); snap.Momentum != m {
		return fmt.Errorf("parallel: snapshot momentum %v, this trainer runs %v", snap.Momentum, m)
	}
	if wd := t.opts[0].WeightDecay(); snap.WeightDecay != wd {
		return fmt.Errorf("parallel: snapshot weight decay %v, this trainer runs %v", snap.WeightDecay, wd)
	}
	if snap.Epoch < 0 || snap.Batch < -1 || snap.Step < 0 {
		return fmt.Errorf("parallel: snapshot cursor (epoch %d, batch %d, step %d) is invalid", snap.Epoch, snap.Batch, snap.Step)
	}
	// Weights first — the checkpoint decoder carries the full
	// name/shape validation, so a foreign snapshot fails here cleanly.
	if err := t.LoadCheckpoint(bytes.NewReader(snap.Params)); err != nil {
		return err
	}
	for _, opt := range t.opts {
		vel := opt.Velocity()
		if len(snap.Velocity) != len(vel) {
			return fmt.Errorf("parallel: snapshot carries %d velocity tensors, optimiser has %d", len(snap.Velocity), len(vel))
		}
		for i, v := range vel {
			if len(snap.Velocity[i]) != len(v.Data) {
				return fmt.Errorf("parallel: velocity tensor %d has %d elements, optimiser wants %d", i, len(snap.Velocity[i]), len(v.Data))
			}
			copy(v.Data, snap.Velocity[i])
		}
	}
	t.statsMu.Lock()
	t.stepIdx = snap.Step
	t.curEpoch = snap.Epoch
	t.lastBatch = snap.Batch
	t.epochShuffleState = snap.ShuffleState
	t.statsMu.Unlock()
	t.restored = snap
	t.tracer.Record(t.ranks[0], obs.PhaseControl, "restore", -1, int64(len(snap.Params)), restoreStart, t.tracer.Now()-restoreStart)
	return nil
}

// Restore installs an elastic snapshot received out of band — the
// replacement path: cluster.Rejoin hands the snapshot the donor
// streamed, Restore installs it, and the next Run resumes at its
// cursor instead of epoch 0.
func (t *Trainer) Restore(snap *elastic.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("parallel: nil snapshot")
	}
	return t.installSnapshot(snap)
}

// SaveState writes the trainer's full elastic session state — weights,
// optimiser velocity, counters and data cursor, in the repro/elastic
// snapshot format. Unlike SaveCheckpoint (weights only), a run resumed
// from this state via LoadState continues bit-identically to one that
// never stopped. Call it between Run calls or after Run returns, not
// mid-step.
func (t *Trainer) SaveState(w io.Writer) error {
	snap, err := t.makeSnapshot()
	if err != nil {
		return err
	}
	return snap.EncodeTo(w)
}

// LoadState restores state written by SaveState; the next Run resumes
// at the saved cursor. In a cluster, every rank must load the same
// state bytes.
func (t *Trainer) LoadState(r io.Reader) error {
	snap, err := elastic.ReadSnapshot(r)
	if err != nil {
		return err
	}
	return t.installSnapshot(snap)
}

// Run trains on train for the configured epochs, measuring accuracy on
// test, and returns the history.
//
// With an elastic controller attached (Config.Elastic), a peer-death
// verdict mid-run is repaired instead of surfaced: the loop quiesces
// at the step barrier its abort unwound to, the controller rebuilds
// the world, and training continues — re-running the interrupted step
// in place, or jumping to a donor's cursor when this rank had to catch
// up. A trainer that had a snapshot installed before Run (Restore /
// LoadState) starts at the snapshot's cursor instead of epoch 0; its
// History then records the resumed portion only, and WireBytes counts
// traffic of the current mesh incarnation.
func (t *Trainer) Run(train, test *data.Dataset) (*History, error) {
	cfg := t.cfg
	h := &History{Config: cfg}
	shuffle := rng.New(cfg.Seed).Fork(0xdead)
	epoch, startBatch := 0, 0
	if snap := t.takeRestored(); snap != nil {
		shuffle.SetState(snap.ShuffleState)
		epoch, startBatch = snap.Epoch, snap.Batch+1
	}
	for epoch < cfg.Epochs {
		start := time.Now()
		lr := cfg.Schedule.LRAt(epoch)
		for _, opt := range t.opts {
			opt.SetLR(lr)
		}
		// The cursor marks the epoch's start before the permutation is
		// drawn: restoring epochShuffleState and replaying Batches
		// reproduces the exact batch order lastBatch indexes into.
		t.statsMu.Lock()
		t.curEpoch = epoch
		t.lastBatch = startBatch - 1
		t.epochShuffleState = shuffle.State()
		t.statsMu.Unlock()
		batches := train.Batches(shuffle, cfg.BatchSize)
		var lossSum float64
		var lossCnt int
		slowCount := make([]int, cfg.Workers)
		jumped := false
		for bi := startBatch; bi < len(batches); bi++ {
			batch := batches[bi]
			if len(batch) < cfg.Workers {
				t.noteBatch(bi)
				continue // drop a tail smaller than the worker count
			}
			loss, err := t.runStep(train, batch)
			if err != nil {
				snap, rerr := t.tryRejoin(err)
				if rerr != nil {
					return nil, rerr
				}
				if snap != nil {
					// This rank was behind the resume point: adopt the
					// donor's cursor and re-enter the outer loop there.
					// The partial pass contributes no epoch stats.
					shuffle.SetState(snap.ShuffleState)
					epoch, startBatch = snap.Epoch, snap.Batch+1
					jumped = true
					break
				}
				// Already at the resume point: re-run the interrupted
				// step over the rebuilt mesh.
				bi--
				continue
			}
			t.noteBatch(bi)
			lossSum += loss
			lossCnt++
			if st := t.lastStats.Load(); st != nil && st.Slowest >= 0 {
				slowCount[st.Slowest]++
			}
		}
		if jumped {
			continue
		}
		startBatch = 0
		slowest := -1
		for r, n := range slowCount {
			if n > 0 && (slowest < 0 || n > slowCount[slowest]) {
				slowest = r
			}
		}
		stats := EpochStats{
			Epoch:        epoch,
			TrainLoss:    lossSum / float64(max(lossCnt, 1)),
			TestAccuracy: -1,
			TestTop5:     -1,
			LR:           lr,
			WireBytes:    t.totalWireBytes(),
			Elapsed:      time.Since(start),
			SlowestRank:  slowest,
		}
		if (epoch+1)%cfg.EvalEvery == 0 || epoch == cfg.Epochs-1 {
			accs := t.EvaluateKs(test, 1, 5)
			stats.TestAccuracy = accs[0]
			stats.TestTop5 = accs[1]
			h.FinalAccuracy = stats.TestAccuracy
			if stats.TestAccuracy > h.BestAccuracy {
				h.BestAccuracy = stats.TestAccuracy
			}
		}
		h.Epochs = append(h.Epochs, stats)
		epoch++
	}
	h.TotalWireBytes = t.totalWireBytes()
	return h, nil
}

// noteBatch advances the elastic cursor past a finished (or skipped)
// batch index of the running epoch.
func (t *Trainer) noteBatch(bi int) {
	t.statsMu.Lock()
	t.lastBatch = bi
	t.statsMu.Unlock()
}

// takeRestored consumes the pending resume cursor.
func (t *Trainer) takeRestored() *elastic.Snapshot {
	snap := t.restored
	t.restored = nil
	return snap
}

// maxRejoins resolves the trainer's rejoin budget: negative means
// unlimited.
func (t *Trainer) maxRejoins() int {
	if t.cfg.MaxRejoins != 0 {
		return t.cfg.MaxRejoins
	}
	return elastic.DefaultMaxRejoins
}

// tryRejoin decides what a step error means. Without an elastic
// controller — or for errors that are not a peer-death verdict, or
// once the rejoin budget is spent — the error is final and returned
// as-is (wrapped with the budget note where that is the cause). With
// one, the controller repairs the world; on success the trainer swaps
// in the rebuilt fabric and monitor, rebuilds the reducer over them,
// and reports how to resume: a non-nil snapshot moves the cursor (this
// rank caught up to the donor), nil re-runs the interrupted step in
// place. A failed repair surfaces the original verdict with the repair
// failure noted, still errors.As-matchable as health.ErrPeerDead so
// exit-code contracts hold.
func (t *Trainer) tryRejoin(stepErr error) (*elastic.Snapshot, error) {
	if t.cfg.Elastic == nil {
		return nil, stepErr
	}
	var dead health.ErrPeerDead
	if !errors.As(stepErr, &dead) {
		return nil, stepErr
	}
	if budget := t.maxRejoins(); budget >= 0 && t.rejoins >= budget {
		return nil, fmt.Errorf("parallel: rank %d exhausted its %d rejoin rounds: %w", t.ranks[0], budget, stepErr)
	}
	t.rejoins++
	out, err := t.cfg.Elastic.Rejoin(stepErr, elastic.LocalState{
		Step:     t.currentStep(),
		Snapshot: t.makeSnapshot,
		Install:  t.installSnapshot,
	})
	if err != nil {
		return nil, fmt.Errorf("parallel: rank %d could not rejoin (%v) after %w", t.ranks[0], err, stepErr)
	}
	// The replacement fabric's byte counter starts at zero; fold the
	// old incarnation's traffic into the base so EpochStats.WireBytes
	// stays cumulative across repairs (the old fabric is closed but
	// its counter remains readable). The swap happens under statsMu so
	// a concurrent metrics scrape reads either incarnation whole.
	t.statsMu.Lock()
	t.wireBase += t.fabric.TotalBytes()
	t.fabric = out.Fabric
	t.monitor = out.Monitor
	t.statsMu.Unlock()
	if t.cfg.HealthHandler != nil && t.monitor != nil {
		t.monitor.OnVerdict(t.cfg.HealthHandler)
	}
	t.wireMonitorObs()
	if t.tracer != nil {
		now := t.tracer.Now()
		t.tracer.Record(t.ranks[0], obs.PhaseControl, "rejoin", -1, 0, now, 0)
	}
	if err := t.buildReducer(); err != nil {
		return nil, err
	}
	return t.takeRestored(), nil
}

// runStep drives one synchronous step through the guard rails: a
// health-plane verdict fails fast (and interrupts a step in flight),
// and the optional step deadline bounds the wall time of compute plus
// exchange, aborting the fabric on expiry so the blocked workers
// unwind. With neither configured this is a direct call.
func (t *Trainer) runStep(train *data.Dataset, batch []int) (float64, error) {
	deadline := t.cfg.StepDeadline
	if deadline <= 0 && t.monitor == nil {
		return t.step(train, batch)
	}
	if t.monitor != nil {
		// A verdict reached between steps fails fast, before any local
		// worker blocks inside a voided exchange.
		if err := t.monitor.Verdict(); err != nil {
			return 0, err
		}
	}
	type result struct {
		loss float64
		err  error
	}
	stepNo := t.currentStep() + 1
	start := time.Now()
	done := make(chan result, 1)
	go func() {
		loss, err := t.step(train, batch)
		done <- result{loss, err}
	}()
	var expire <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expire = timer.C
	}
	var dead <-chan struct{}
	if t.monitor != nil {
		dead = t.monitor.Dead()
	}
	select {
	case r := <-done:
		// The timer can fire after the step finished even though the
		// deadline passed first (it is delivered asynchronously, and
		// select picks at random between ready cases); an overrun step
		// is a deadline expiry however that race resolves.
		if deadline > 0 && time.Since(start) > deadline {
			err := ErrStepDeadline{Rank: t.ranks[0], Step: stepNo, Deadline: deadline}
			t.abortFabric(err)
			return 0, err
		}
		if r.err != nil && t.monitor != nil && !errors.Is(r.err, comm.ErrClosed) {
			// A dying peer's data sockets EOF at the same instant as its
			// control links, so the raw transport error can beat the
			// failure detector by microseconds. With a health plane
			// attached the transport error is a symptom and the verdict
			// is the diagnosis: wait — bounded by the detector's hard
			// deadline, which covers even a half-open silent peer — for
			// the typed verdict every survivor must agree on, and fall
			// back to the raw error only if the plane stays convinced
			// the peers are alive (a genuine local transport fault).
			if v := t.awaitVerdict(); v != nil {
				return 0, v
			}
		}
		return r.loss, r.err
	case <-expire:
		err := ErrStepDeadline{Rank: t.ranks[0], Step: stepNo, Deadline: deadline}
		// Join the step unconditionally: on an abortable fabric the
		// teardown unwinds it promptly; on the in-process channel fabric
		// (which cannot be interrupted) the exchange is still making
		// progress and finishes on its own — returning without joining
		// would leave the goroutine mutating the replicas under the
		// caller's feet.
		t.abortFabric(err)
		<-done
		return 0, err
	case <-dead:
		err := t.monitor.Verdict()
		// The session wiring aborted the fabric in the verdict handler
		// before Dead() released; abortFabric is an idempotent backstop
		// for monitors attached outside a cluster session.
		t.abortFabric(err)
		<-done
		return 0, err
	}
}

// currentStep reads the completed-step counter under the stats lock
// (the step goroutine increments it in recordStep).
func (t *Trainer) currentStep() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stepIdx
}

// awaitVerdict waits up to the health plane's hard detection deadline
// for a death verdict, returning it, or nil if none arrives (the peers
// are provably alive and heartbeating).
func (t *Trainer) awaitVerdict() error {
	if v := t.monitor.Verdict(); v != nil {
		return v
	}
	grace := t.monitor.Config().Timeout
	select {
	case <-t.monitor.Dead():
		return t.monitor.Verdict()
	case <-time.After(grace):
		return nil
	}
}

// step performs one synchronous iteration over the given global batch.
// Sharding is by global rank, so every process of a cluster world
// computes gradients over a disjoint slice of the same deterministic
// batch; the loss it reports averages its local shards only.
func (t *Trainer) step(train *data.Dataset, batch []int) (float64, error) {
	k := t.cfg.Workers
	// Elastic sessions key the reducer's stochastic streams to the step
	// about to run — once, before any worker encodes. Every rank
	// derives the same index from its own completed-step counter, so
	// the streams agree across processes; re-entering an aborted step
	// re-keys to the same index, which is what lets a rejoin re-run it
	// bit-identically, and a replacement reconstruct a dead rank's
	// streams from the counters alone. Non-elastic runs keep the
	// paper's original cumulative streams, so enabling elasticity is
	// the one switch that changes (reproducibly) which random draws a
	// quantised run sees.
	if t.cfg.Elastic != nil {
		if sk, ok := t.reducer.(comm.StepKeyed); ok {
			sk.BeginStep(t.currentStep() + 1)
		}
	}
	// Publish the step index to the tracer so the reducer's spans carry
	// it without any per-message plumbing (nil-safe no-op when off).
	t.tracer.SetStep(t.currentStep() + 1)
	losses := make([]float64, len(t.ranks))
	errs := make([]error, len(t.ranks))
	compute := make([]time.Duration, len(t.ranks))
	exchange := make([]time.Duration, len(t.ranks))
	var wg sync.WaitGroup
	for li, w := range t.ranks {
		wg.Add(1)
		go func(li, w int) {
			defer wg.Done()
			c0 := t.tracer.Now()
			start := time.Now()
			shard := batch[w*len(batch)/k : (w+1)*len(batch)/k]
			x, labels := train.Gather(shard)
			net := t.replicas[li]
			net.ZeroGrads()
			loss := t.losses[li]
			losses[li] = loss.Forward(net.Forward(x, true), labels)
			net.Backward(loss.Backward(labels))
			compute[li] = time.Since(start)
			t.tracer.Record(w, obs.PhaseCompute, "step", -1, 0, c0, int64(compute[li]))
			// Exchange every tensor, then average over workers: the
			// paper's x ← x − (η/K)·Σ g̃. The barrier span covers the
			// whole blocking exchange; the reducer's fine spans break it
			// down, and the remainder is straggler wait.
			e0 := t.tracer.Now()
			exchStart := time.Now()
			invK := 1 / float32(k)
			for i, p := range net.Params() {
				if err := t.reducer.Reduce(w, i, p.Grad.Data); err != nil {
					errs[li] = err
					return
				}
				if k > 1 {
					p.Grad.Scale(invK)
				}
			}
			exchange[li] = time.Since(exchStart)
			t.tracer.Record(w, obs.PhaseBarrier, "exchange", -1, 0, e0, int64(exchange[li]))
			if t.cfg.ClipNorm > 0 {
				nn.ClipGradNorm(net.Params(), t.cfg.ClipNorm)
			}
			t.opts[li].Step()
		}(li, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	t.recordStep(compute, exchange)
	var sum float64
	for _, l := range losses {
		sum += l
	}
	mean := sum / float64(len(t.ranks))
	if every := t.cfg.TelemetryEvery; every > 0 {
		if step := t.currentStep(); step%int64(every) == 0 {
			t.captureTelemetry(step, mean, compute[0], exchange[0])
		}
	}
	return mean, nil
}

// captureTelemetry samples the convergence signals of the step that
// just completed: the mean local loss, each tensor's aggregated
// gradient norms, and the distortion the negotiated codec would
// introduce on exactly those gradients (quant.MeasureError with a
// step-keyed seed, so the sample is deterministic per step). It runs
// on the step driver after the worker goroutines joined — the
// aggregated gradients are stable until the next step's ZeroGrads —
// and probes the codecs over a scratch copy, so training state is
// bit-for-bit untouched and no byte reaches the data mesh; the
// snapshot travels the control plane only (ControlBytes).
func (t *Trainer) captureTelemetry(step int64, loss float64, compute, exchange time.Duration) {
	params := t.replicas[0].Params()
	tensors := make([]health.TensorTelemetry, 0, len(params))
	for i, p := range params {
		src := p.Grad.Data
		l2, inf := quant.GradNorms(src)
		if cap(t.teleScratch) < len(src) {
			t.teleScratch = make([]float32, len(src))
		}
		scratch := t.teleScratch[:len(src)]
		copy(scratch, src)
		seed := t.cfg.Seed ^ uint64(step)*0x9E3779B97F4A7C15 ^ uint64(i)<<32
		es := quant.MeasureError(t.plan.CodecFor(i), scratch, t.specs[i].Wire, 1, seed)
		tensors = append(tensors, health.TensorTelemetry{
			Name: p.Name, GradL2: l2, GradInf: inf,
			RMSE: es.RMSE, Compression: es.CompressionRatio,
		})
		t.gradL2G[i].Set(scaledInt(l2, 1e6))
		t.gradInfG[i].Set(scaledInt(inf, 1e6))
		t.rmseG[i].Set(scaledInt(es.RMSE, 1e9))
		t.compG[i].Set(scaledInt(es.CompressionRatio, 1e3))
	}
	t.teleStepG.Set(step)
	t.lossGauge.Set(scaledInt(loss, 1e6))
	snap := health.TelemetrySnapshot{
		Step: step, Loss: loss, Compute: compute, Exchange: exchange,
		Tensors: tensors,
	}
	switch {
	case t.monitor != nil:
		// The bounds only reject models with >1024 exchanged tensors or
		// names past 255 bytes; such a model deserves a loud report once,
		// not a silent telemetry gap.
		if err := t.monitor.ReportTelemetry(snap); err != nil && step == int64(t.cfg.TelemetryEvery) {
			fmt.Printf("parallel: telemetry disabled on the wire: %v\n", err)
		}
	case t.cfg.TelemetryObserver != nil:
		// No control plane (single-process mode): feed the observer
		// directly so a local hub still sees this rank.
		t.cfg.TelemetryObserver(t.cfg.Rank, snap)
	}
}

// scaledInt converts a telemetry float to a fixed-point gauge value,
// clamping non-finite values to 0 (the int64 registry cannot carry
// them; the wire snapshot keeps the full float64).
func scaledInt(v, scale float64) int64 {
	v *= scale
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return int64(v)
}

// recordStep folds one completed step's local timings — and, in
// cluster mode, the freshest peer reports the heartbeats carried —
// into the straggler report, and hands the local timing to the health
// plane for the next outgoing heartbeat.
func (t *Trainer) recordStep(compute, exchange []time.Duration) {
	t.statsMu.Lock()
	t.stepIdx++
	step := t.stepIdx
	t.statsMu.Unlock()
	k := t.cfg.Workers
	s := StepStats{
		Step:     step,
		Compute:  make([]time.Duration, k),
		Exchange: make([]time.Duration, k),
		Known:    make([]bool, k),
		Slowest:  -1,
	}
	for li, w := range t.ranks {
		s.Compute[w], s.Exchange[w], s.Known[w] = compute[li], exchange[li], true
	}
	if t.monitor != nil {
		local := t.ranks[0]
		t.monitor.ReportStep(health.StepReport{
			Step:     step,
			Compute:  s.Compute[local],
			Exchange: s.Exchange[local],
		})
		for p := 0; p < k; p++ {
			if s.Known[p] {
				continue
			}
			if rep, ok := t.monitor.Report(p); ok {
				s.Compute[p], s.Exchange[p], s.Known[p] = rep.Compute, rep.Exchange, true
			}
		}
	}
	// Attribute by compute time: in a blocking collective the other
	// ranks' exchange timers absorb the wait for the straggler, so the
	// compute+exchange sums are nearly equal across ranks and carry no
	// signal. The last rank to finish computing is the one gating the
	// barrier — matching the simulator's attribution.
	var worst time.Duration
	for p := 0; p < k; p++ {
		if s.Known[p] && (s.Slowest < 0 || s.Compute[p] > worst) {
			worst = s.Compute[p]
			s.Slowest = p
		}
	}
	for li := range t.ranks {
		t.computeHist.Observe(int64(compute[li]))
		t.exchangeHist.Observe(int64(exchange[li]))
	}
	// Publish the snapshot; the stored value is never mutated again.
	t.lastStats.Store(&s)
}

// Evaluate returns top-1 accuracy of the canonical replica on ds.
func (t *Trainer) Evaluate(ds *data.Dataset) float64 {
	return t.EvaluateKs(ds, 1)[0]
}

// EvaluateKs returns top-k accuracy of the canonical replica on ds for
// each requested k in a single pass (the paper reports top-1 and
// top-5).
func (t *Trainer) EvaluateKs(ds *data.Dataset, ks ...int) []float64 {
	const evalBatch = 256
	net := t.replicas[0]
	correct := make([]int, len(ks))
	total := 0
	for start := 0; start < ds.Len(); start += evalBatch {
		end := start + evalBatch
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, labels := ds.Gather(idx)
		logits := net.Forward(x, false)
		for i := range labels {
			row := logits.Row(i)
			target := row[labels[i]]
			higher := 0
			for _, v := range row {
				if v > target {
					higher++
				}
			}
			for ki, k := range ks {
				if higher < k {
					correct[ki]++
				}
			}
		}
		total += len(labels)
	}
	out := make([]float64, len(ks))
	if total == 0 {
		return out
	}
	for ki := range ks {
		out[ki] = float64(correct[ki]) / float64(total)
	}
	return out
}

// ReplicasInSync reports whether all replicas hold bit-identical weights
// — the invariant synchronous SGD must maintain.
func (t *Trainer) ReplicasInSync() bool {
	ref := t.replicas[0].Params()
	for w := 1; w < len(t.replicas); w++ {
		ps := t.replicas[w].Params()
		for i, p := range ps {
			for j, v := range p.Value.Data {
				if v != ref[i].Value.Data[j] {
					return false
				}
			}
		}
	}
	return true
}
