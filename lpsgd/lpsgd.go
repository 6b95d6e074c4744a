// Package lpsgd is the public facade of the low-precision SGD library:
// one import, a functional-options constructor, and sensible defaults
// for everything the paper tuned. It wraps the building blocks —
// repro/quant (codecs and policies), repro/comm (fabrics and
// reducers), repro/parallel (the synchronous data-parallel engine)
// and repro/health (the cluster's failure-detection plane) — so
// applications select precision by one policy string and a transport
// by constant instead of hand-wiring configs.
//
// The precision surface is the policy grammar (quant.ParsePolicy):
// one string naming the base codec, the small-matrix exemption target,
// and per-tensor pattern rules. WithPolicy is the one precision option
// — a bare codec name is a valid policy:
//
//	trainer, err := lpsgd.NewTrainer(model,
//	    lpsgd.WithPolicy("qsgd4b512;embedding=topk0.001;*.b=32bit"),
//	    lpsgd.WithWorkers(8),
//	    lpsgd.WithTransport(lpsgd.TCP),
//	    lpsgd.WithEpochs(20),
//	)
//	history, err := trainer.Run(train, test)
//
// Codec names go through quant.Parse, which derives bits, bucket size,
// normalisation and level scheme from the name itself ("qsgd4b512",
// "1bit*64", "topk0.01", ...). Over the TCP transport every gradient
// message is a self-describing quant frame, so peers decode with no
// out-of-band codec agreement.
//
// Training can also span OS processes and machines: cluster.Join runs
// the repro/cluster rendezvous — membership, the precision policy
// negotiated over every rank's accept list (floored at "32bit"), the
// health plane and elasticity are all spelled in one cluster.Config —
// and WithClusterSession trains this rank of the world over the
// dialled TCP mesh:
//
//	sess, err := cluster.Join(cluster.Config{
//	    Addr: "10.0.0.1:7070", Rank: rank, World: 3,
//	    Accept: []string{"qsgd4b512;*.b=32bit", "qsgd4b512"},
//	    Health: health.Config{Interval: 250 * time.Millisecond, Timeout: 2 * time.Second},
//	})
//	trainer, err := lpsgd.NewTrainer(model, lpsgd.WithClusterSession(sess))
//
// Cluster sessions carry a health plane (repro/health): heartbeats on
// dedicated control links, a phi-or-deadline failure detector, and a
// coordinated abort, so a rank dying mid-epoch surfaces on every
// survivor as the same typed health.ErrPeerDead from Run — within
// roughly the heartbeat timeout — instead of hanging the exchange.
// cluster.Config.Health tunes it, WithHealthHandler observes the
// verdict, WithStepDeadline bounds one synchronous step, and
// Trainer.StepStats reports per-rank step timings with slowest-rank
// attribution (telemetry that rides on the heartbeats themselves).
//
// See cmd/lpsgd-worker for the ready-made per-rank binary, including
// the exit-code contract external supervisors can restart on.
package lpsgd

import (
	"fmt"
	"time"

	"repro/cluster"
	"repro/health"
	"repro/nn"
	"repro/obs"
	"repro/parallel"
	"repro/quant"
	"repro/rng"
)

// BuildFunc constructs one model replica; it must be deterministic in
// its RNG argument so all replicas start bit-identical.
type BuildFunc = func(r *rng.RNG) *nn.Network

// Trainer is the synchronous data-parallel training engine (see
// repro/parallel for Run, Evaluate, checkpointing and sync inspection).
type Trainer = parallel.Trainer

// History is the per-epoch record a Run returns.
type History = parallel.History

// Primitive selects the aggregation algorithm.
type Primitive = parallel.Primitive

// Aggregation primitives, re-exported from repro/parallel.
const (
	// MPI is reduce-and-broadcast; it carries quantised payloads
	// natively.
	MPI = parallel.MPI
	// NCCL is the ring allreduce with full-precision sums.
	NCCL = parallel.NCCL
)

// Transport selects the byte-moving substrate beneath the aggregation
// primitive.
type Transport int

const (
	// InProcess moves gradients over in-process channels — the fast
	// path standing in for PCIe/NVLink peer-to-peer copies.
	InProcess Transport = iota
	// TCP moves gradients over real loopback sockets with
	// self-describing framed payloads — the host-mediated MPI path.
	TCP
)

// String names the transport.
func (t Transport) String() string {
	if t == TCP {
		return "TCP"
	}
	return "InProcess"
}

// config accumulates options before they are handed to the engine.
type config struct {
	cfg parallel.Config
	lr  float32
	err error
	// session is the WithClusterSession membership, owned from the
	// moment the option ran.
	session *cluster.Session
	// handler is the WithHealthHandler callback, registered on the
	// session's monitor once one exists.
	handler func(error)
}

// Option mutates the trainer configuration; invalid options surface
// their error from NewTrainer, not at the call site.
type Option func(*config)

// WithPolicy selects the complete precision policy by name via
// quant.ParsePolicy — base codec, small-matrix exemption target and
// per-tensor pattern rules in one string:
//
//	lpsgd.WithPolicy("qsgd4b512")                          // plain codec
//	lpsgd.WithPolicy("qsgd4b512;minfrac=0.95")             // tighter exemption
//	lpsgd.WithPolicy("qsgd4b512;embedding=topk0.001;*.b=32bit")
//
// Without it (or WithPolicyValue) gradients travel at full precision.
func WithPolicy(name string) Option {
	return func(c *config) {
		p, err := quant.ParsePolicy(name)
		if err != nil {
			c.fail(err)
			return
		}
		c.cfg.Policy = p
	}
}

// WithPolicyValue supplies an already-constructed policy. It validates
// at option-apply time that the policy round-trips its own canonical
// name — the invariant cluster negotiation and framed decoding depend
// on, since that name is all a peer sees — so a hand-built policy
// whose codecs the grammar cannot reconstruct is rejected here.
func WithPolicyValue(p *quant.Policy) Option {
	return func(c *config) {
		if p == nil {
			c.fail(fmt.Errorf("lpsgd: nil policy"))
			return
		}
		if err := p.Validate(); err != nil {
			c.fail(fmt.Errorf("lpsgd: %w", err))
			return
		}
		// A copy keeps later edits of the caller's object from
		// bypassing the validation.
		cp := *p
		c.cfg.Policy = &cp
	}
}

// WithWorkers sets K, the number of simulated GPUs.
func WithWorkers(k int) Option {
	return func(c *config) { c.cfg.Workers = k }
}

// WithTransport selects the byte-moving substrate.
func WithTransport(t Transport) Option {
	return func(c *config) {
		switch t {
		case InProcess:
			c.cfg.UseTCP = false
		case TCP:
			c.cfg.UseTCP = true
		default:
			c.fail(fmt.Errorf("lpsgd: unknown transport %d", t))
		}
	}
}

// WithPrimitive selects MPI reduce-and-broadcast or the NCCL ring.
func WithPrimitive(p Primitive) Option {
	return func(c *config) { c.cfg.Primitive = p }
}

// WithClusterSession runs this process as one rank of a multi-process
// world: the trainer drives only this rank, and gradients cross
// process and machine boundaries over the session's dialled TCP mesh.
// The session — from cluster.Join, cluster.Coordinator.Join or
// cluster.Rejoin — fixes everything the rendezvous settled: its
// negotiated policy overrides WithPolicy, its world size overrides
// WithWorkers, and its health plane and elasticity are the ones its
// cluster.Config asked for (the coordinator's heartbeat and rejoin
// window govern every rank; the rejoin budget is this process's
// Elastic.MaxRejoins). Every rank must use the same seed, schedule,
// batch size and model builder, or the replicas will not stay
// bit-identical. The trainer takes ownership of the session and closes
// it on Close; a later WithClusterSession closes the one it replaces.
func WithClusterSession(s *cluster.Session) Option {
	return func(c *config) {
		if s == nil {
			c.fail(fmt.Errorf("lpsgd: nil cluster session"))
			return
		}
		if c.session != nil && c.session != s {
			c.session.Close()
		}
		c.session = s
	}
}

// WithStepDeadline bounds the wall time of one synchronous step
// (compute + gradient exchange); on expiry the trainer aborts the
// fabric and Run returns a parallel.ErrStepDeadline. Where the
// heartbeat catches a dead peer, the deadline catches a live but
// hopeless one: a rank that heartbeats happily while its exchange
// never finishes. Zero (the default) disables it.
func WithStepDeadline(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			c.fail(fmt.Errorf("lpsgd: step deadline must not be negative, got %v", d))
			return
		}
		c.cfg.StepDeadline = d
	}
}

// WithHealthHandler registers a callback invoked once per death
// verdict the health plane reaches — after the fabric has been
// aborted, so the callback may inspect state but the exchange is
// already unblocking. In an elastic session (cluster.Config.Elastic)
// that can mean once per repaired death: the handler is re-registered on every
// replacement monitor a rejoin round installs. Use it for operational
// side channels (alerting, checkpoint-on-death); Run still returns
// the health.ErrPeerDead verdict when a death goes unrepaired. No
// effect when the health plane is off or outside cluster mode.
func WithHealthHandler(fn func(error)) Option {
	return func(c *config) {
		if fn == nil {
			c.fail(fmt.Errorf("lpsgd: nil health handler"))
			return
		}
		c.handler = fn
	}
}

// WithMetrics attaches an obs metrics registry: the trainer registers
// its counters, gauges and step histograms (wire bytes, steps, phase
// timings, per-peer link traffic in cluster mode) on it at
// construction. Serve the registry with obs.Serve or scrape it via
// Registry.WriteText. Nil is the default (no metrics).
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.cfg.Metrics = reg }
}

// WithTracer attaches an obs step-phase tracer: the trainer and its
// reducers record compute/quantise/encode/transfer/decode/barrier
// spans per step. A cluster session records its rendezvous and rejoin
// rounds as control spans when the same tracer is its
// cluster.Config.Tracer. The tracer is nil-safe and fully inert when unset; convert a
// captured trace with lpsgd-trace to compare against the simulator.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *config) { c.cfg.Tracer = tr }
}

// WithTelemetry turns on the convergence-telemetry sampler: every
// everySteps steps the trainer snapshots the step loss, per-tensor
// gradient norms and the live quantisation error of the negotiated
// codec (probed on a scratch copy of the gradients — training bits
// and data-plane traffic are untouched), publishes the sample to the
// local metrics registry (WithMetrics) and, in cluster mode, ships it
// to every peer over the heartbeat control plane, where the bytes
// count under ControlBytes. Zero (the default) disables sampling.
func WithTelemetry(everySteps int) Option {
	return func(c *config) {
		if everySteps < 0 {
			c.fail(fmt.Errorf("lpsgd: telemetry cadence must be non-negative, got %d", everySteps))
			return
		}
		c.cfg.TelemetryEvery = everySteps
	}
}

// WithTelemetryObserver registers a callback invoked once per
// telemetry snapshot this rank learns about — synchronously for its
// own samples, from the control-plane read loop for a peer's. Feed it
// to cluster.TelemetryHub.Observe to aggregate a cluster-wide view.
// Like WithHealthHandler, the observer survives elastic rejoins: it
// is re-registered on every replacement monitor. No effect outside
// cluster mode or when telemetry is off.
func WithTelemetryObserver(fn func(peer int, s health.TelemetrySnapshot)) Option {
	return func(c *config) {
		if fn == nil {
			c.fail(fmt.Errorf("lpsgd: nil telemetry observer"))
			return
		}
		c.cfg.TelemetryObserver = fn
	}
}

// WithBatchSize sets the global minibatch size, sharded over workers.
func WithBatchSize(n int) Option {
	return func(c *config) { c.cfg.BatchSize = n }
}

// WithEpochs sets the number of passes over the training set.
func WithEpochs(n int) Option {
	return func(c *config) { c.cfg.Epochs = n }
}

// WithLearningRate sets a constant learning rate; WithSchedule
// overrides it.
func WithLearningRate(lr float32) Option {
	return func(c *config) { c.lr = lr }
}

// WithSchedule supplies a per-epoch learning-rate schedule.
func WithSchedule(s nn.Schedule) Option {
	return func(c *config) { c.cfg.Schedule = s }
}

// WithMomentum sets the SGD momentum (default: the paper's 0.9).
func WithMomentum(m float32) Option {
	return func(c *config) { c.cfg.Momentum = m }
}

// WithWeightDecay sets the L2 regularisation coefficient.
func WithWeightDecay(wd float32) Option {
	return func(c *config) { c.cfg.WeightDecay = wd }
}

// WithClipNorm bounds the global gradient L2 norm after aggregation.
func WithClipNorm(limit float32) Option {
	return func(c *config) { c.cfg.ClipNorm = limit }
}

// WithSeed fixes all randomness (init, shuffling, stochastic rounding).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.cfg.Seed = seed }
}

// WithEvalEvery evaluates test accuracy every n epochs.
func WithEvalEvery(n int) Option {
	return func(c *config) { c.cfg.EvalEvery = n }
}

func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// NewTrainer builds a synchronous data-parallel trainer from a model
// builder and options. Unset options fall back to a small, paper-shaped
// default: 4 workers, global batch 64, 10 epochs, constant LR 0.05,
// momentum 0.9, full-precision gradients, the MPI primitive over the
// in-process transport.
func NewTrainer(model BuildFunc, opts ...Option) (*Trainer, error) {
	c := config{
		cfg: parallel.Config{
			Workers:   4,
			BatchSize: 64,
			Epochs:    10,
			Momentum:  0.9,
		},
		lr: 0.05,
	}
	for _, opt := range opts {
		opt(&c)
	}
	// An adopted session is owned from the moment the option ran: every
	// error path must release it, or the mesh stays open and the peer
	// ranks block in their first exchange forever.
	if model == nil {
		c.fail(fmt.Errorf("lpsgd: model builder is required"))
	}
	if c.err != nil {
		if c.session != nil {
			c.session.Close()
		}
		return nil, c.err
	}
	if c.cfg.Schedule == nil {
		c.cfg.Schedule = nn.ConstantLR(c.lr)
	}
	sess := c.session
	if sess == nil {
		return parallel.NewTrainer(model, c.cfg)
	}
	// The rendezvous outcome drives the engine: negotiated policy,
	// world size, this rank, the established mesh, the health plane
	// watching it (the trainer owns the monitor and closes it — bye
	// first, then sockets — in Close), and — when the coordinator
	// enabled elasticity — the session itself as the trainer's rejoin
	// controller.
	c.cfg.Policy = sess.Policy()
	c.cfg.Workers = sess.World()
	c.cfg.Rank = sess.Rank()
	c.cfg.Fabric = sess.Fabric()
	c.cfg.Monitor = sess.Monitor()
	c.cfg.UseTCP = false
	if sess.Elastic().Enable {
		c.cfg.Elastic = sess
		c.cfg.MaxRejoins = sess.Elastic().MaxRejoins
	}
	// The handler goes through the trainer, not straight onto the
	// session's monitor: a rejoin round replaces the monitor, and the
	// trainer re-registers the handler on each replacement so alerting
	// keeps working across repairs.
	c.cfg.HealthHandler = c.handler
	t, err := parallel.NewTrainer(model, c.cfg)
	if err != nil {
		sess.Close()
		return nil, err
	}
	return t, nil
}
