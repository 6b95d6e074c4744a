// Package runflags is the flag set the training commands share:
// lpsgd-train and lpsgd-worker both register it, so the task, the
// hyper-parameters, the precision policy, checkpoint paths, the health
// and elasticity knobs and the observability plane are spelled,
// validated and wired the same way in both. It also renders the argv
// lpsgd-train forwards to the ranks it forks, derived from the flag set
// itself so that a flag added here reaches forked ranks without a
// second list to keep in step.
package runflags

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cluster"
	"repro/elastic"
	"repro/health"
	"repro/lpsgd"
	"repro/obs"
)

// Defaults are the per-command defaults of the flags whose values the
// two commands size differently.
type Defaults struct {
	Policy       string
	Epochs       int
	TrainSamples int
	TestSamples  int
}

// Flags holds the parsed values of the shared flags.
type Flags struct {
	Task         string
	Policy       string
	Epochs       int
	Batch        int
	LR           float64
	Seed         uint64
	TrainSamples int
	TestSamples  int
	Save         string
	Load         string

	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration
	StepDeadline     time.Duration
	RejoinWindow     time.Duration
	MaxRejoins       int

	MetricsAddr    string
	TraceOut       string
	TelemetryEvery int

	cmd   string
	fs    *flag.FlagSet
	names map[string]bool
}

// perProcess are the shared flags a forked rank must not inherit: two
// processes cannot serve one address, interleave one trace file, or
// race to write one checkpoint.
var perProcess = map[string]bool{"metrics-addr": true, "trace-out": true, "save": true}

// Register defines the shared flags on fs with the command's defaults.
// cmd prefixes the messages Validate and Plane produce.
func Register(fs *flag.FlagSet, cmd string, d Defaults) *Flags {
	f := &Flags{cmd: cmd, fs: fs, names: make(map[string]bool)}
	// Flags fs already holds belong to the command, not to this set.
	command := make(map[string]bool)
	fs.VisitAll(func(fl *flag.Flag) { command[fl.Name] = true })
	fs.StringVar(&f.Task, "task", "image", "task: image or sequence")
	fs.StringVar(&f.Policy, "policy", d.Policy, "precision policy (quant.ParsePolicy grammar; a bare codec name such as 32bit, qsgd4, 1bit*64 or topk0.01 is a valid policy), e.g. 'qsgd4b512;minfrac=0.95;*.b=32bit'; a cluster rank advertises it in the rendezvous")
	fs.IntVar(&f.Epochs, "epochs", d.Epochs, "training epochs")
	fs.IntVar(&f.Batch, "batch", 64, "global minibatch size, sharded over workers")
	fs.Float64Var(&f.LR, "lr", 0.05, "learning rate")
	fs.Uint64Var(&f.Seed, "seed", 17, "random seed (identical on every rank)")
	fs.IntVar(&f.TrainSamples, "train-samples", d.TrainSamples, "training set size")
	fs.IntVar(&f.TestSamples, "test-samples", d.TestSamples, "test set size")
	fs.StringVar(&f.Save, "save", "", "write a checkpoint of the trained model to this file")
	fs.StringVar(&f.Load, "load", "", "warm-start from this nn checkpoint before training (cluster mode: identical file on every rank)")

	fs.DurationVar(&f.Heartbeat, "heartbeat", health.DefaultInterval, "cluster mode: heartbeat interval of the health plane; the coordinator's value governs the session, 0 disables failure detection")
	fs.DurationVar(&f.HeartbeatTimeout, "heartbeat-timeout", 0, "cluster mode: silence after which a peer is declared dead (0 = 8x the heartbeat interval)")
	fs.DurationVar(&f.StepDeadline, "step-deadline", 0, "abort if one synchronous step (compute+exchange) exceeds this wall time (0 = unbounded)")
	fs.DurationVar(&f.RejoinWindow, "rejoin-window", 0, "cluster mode: make the session elastic — hold a rejoin barrier open this long after a rank death so a replacement can take its slot; the coordinator's value governs the session, 0 disables elasticity")
	fs.IntVar(&f.MaxRejoins, "max-rejoins", 0, "cluster mode: rank deaths tolerated before a death verdict is fatal (0 = default, negative = unlimited)")

	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text), /debug/vars, /debug/pprof and /trace on this address, e.g. 127.0.0.1:9090 (per process: never forwarded to forked ranks)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "append the step-phase trace as JSONL to this file, for lpsgd-trace (per process: never forwarded to forked ranks)")
	fs.IntVar(&f.TelemetryEvery, "telemetry-every", 0, "sample convergence telemetry (loss, gradient norms, live quantisation error) every N steps and ship it over the control plane; with -metrics-addr the aggregated cluster view is served at /cluster/metrics and /cluster/status, watchable with lpsgd-top (0 = off)")

	fs.VisitAll(func(fl *flag.Flag) { f.names[fl.Name] = !command[fl.Name] })
	return f
}

// Validate rejects negative durations and cadences; a command exits 2
// on its error, before it starts or forks anything.
func (f *Flags) Validate() error {
	for _, c := range []struct {
		name string
		neg  bool
	}{
		{"heartbeat", f.Heartbeat < 0},
		{"heartbeat-timeout", f.HeartbeatTimeout < 0},
		{"step-deadline", f.StepDeadline < 0},
		{"rejoin-window", f.RejoinWindow < 0},
		{"telemetry-every", f.TelemetryEvery < 0},
	} {
		if c.neg {
			return fmt.Errorf("%s: -%s must not be negative", f.cmd, c.name)
		}
	}
	return nil
}

// Forward renders the shared flags' current values as the argv of a
// forked rank, every shared flag except the per-process -metrics-addr,
// -trace-out and -save. Command-specific flags are the caller's to add.
func (f *Flags) Forward() []string {
	var args []string
	f.fs.VisitAll(func(fl *flag.Flag) {
		if f.names[fl.Name] && !perProcess[fl.Name] {
			args = append(args, "-"+fl.Name+"="+fl.Value.String())
		}
	})
	return args
}

// Fail prints err and exits with code, the way both commands report
// every failure.
func Fail(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}

// HealthConfig is the health-plane configuration the flags select.
func (f *Flags) HealthConfig() health.Config {
	return health.Config{
		Interval: f.Heartbeat,
		Timeout:  f.HeartbeatTimeout,
		Disable:  f.Heartbeat == 0,
	}
}

// ElasticConfig is the elasticity configuration the flags select: a
// positive -rejoin-window makes the session elastic.
func (f *Flags) ElasticConfig() elastic.Config {
	return elastic.Config{
		Enable:       f.RejoinWindow > 0,
		RejoinWindow: f.RejoinWindow,
		MaxRejoins:   f.MaxRejoins,
	}
}

// Plane is one process's observability plane: a metrics registry and
// step-phase tracer when -metrics-addr or -trace-out asks for them, a
// cluster telemetry hub when -telemetry-every does, and the HTTP server
// of -metrics-addr. Each part may be absent (nil).
type Plane struct {
	Tracer *obs.Tracer

	registry *obs.Registry
	hub      *cluster.TelemetryHub
	srv      *obs.Server
	every    int
}

// Plane builds the observability plane for a world of the given size.
func (f *Flags) Plane(world int) (*Plane, error) {
	p := &Plane{every: f.TelemetryEvery}
	if f.TelemetryEvery > 0 {
		// The policy is stamped once the session settles (SetPolicy).
		p.hub = cluster.NewTelemetryHub(world, "")
	}
	if f.MetricsAddr == "" && f.TraceOut == "" {
		return p, nil
	}
	// The tracer ring is sized for the /trace endpoint; -trace-out
	// streams every span regardless of ring capacity.
	p.registry = obs.NewRegistry()
	p.Tracer = obs.NewTracer(1 << 16)
	if f.TraceOut != "" {
		out, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, err
		}
		p.Tracer.SetSink(out)
	}
	if f.MetricsAddr != "" {
		var extra []obs.Endpoint
		if p.hub != nil {
			extra = p.hub.Endpoints()
		}
		srv, err := obs.Serve(f.MetricsAddr, p.registry, p.Tracer, extra...)
		if err != nil {
			p.Tracer.Close()
			return nil, err
		}
		p.srv = srv
		fmt.Fprintf(os.Stderr, "%s: observability plane on http://%s (/metrics, /debug/pprof, /trace)\n", f.cmd, srv.Addr())
	}
	return p, nil
}

// Options attaches the plane to a trainer: metrics, tracing and — with
// -telemetry-every — telemetry sampling observed by the hub.
func (p *Plane) Options() []lpsgd.Option {
	opts := []lpsgd.Option{lpsgd.WithMetrics(p.registry), lpsgd.WithTracer(p.Tracer)}
	if p.hub != nil {
		opts = append(opts, lpsgd.WithTelemetry(p.every), lpsgd.WithTelemetryObserver(p.hub.Observe))
	}
	return opts
}

// SetPolicy stamps the negotiated policy on the telemetry hub, if any.
func (p *Plane) SetPolicy(name string) {
	if p.hub != nil {
		p.hub.SetPolicy(name)
	}
}

// Close flushes the trace sink and stops the HTTP server. Commands call
// it explicitly before os.Exit, which skips deferred calls.
func (p *Plane) Close() {
	p.Tracer.Close()
	if p.srv != nil {
		p.srv.Close()
	}
}
