// Command lpsgd-worker is one rank of a multi-process training
// cluster: it joins the rendezvous, negotiates a precision policy with
// its peers, trains its shard of every batch over the dialled TCP
// mesh, and reports a digest of the final model so the launcher can
// verify that all ranks converged to bit-identical state.
//
// Rank 0 is the coordinator — it listens on -coordinator and prints
// the bound address (useful with port 0) before waiting for the other
// ranks:
//
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 0 -world 3 -accept qsgd4b512,1bit
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 1 -world 3 -accept qsgd4b512
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 2 -world 3 -accept qsgd4b512,topk0.01
//
// -accept takes full policy strings (quant.ParsePolicy grammar), so
// per-layer mixed-precision schemes negotiate like codecs do; -policy
// is shorthand for advertising one preferred policy ahead of the
// -accept list:
//
//	lpsgd-worker ... -policy "qsgd4b512;embedding=topk0.01" -accept qsgd4b512
//
// Every rank must be launched with the same -task, -seed, -batch,
// -epochs and -lr, or the replicas will not stay bit-identical. -save
// writes the trained model as an nn checkpoint; -load warm-starts from
// one (identical file on every rank — loading different weights per
// rank would break the replica invariant before the first exchange;
// a shape-mismatched checkpoint is rejected with a named error). The
// final stdout line is machine-readable (codec= carries the negotiated
// policy string):
//
//	rank=1 world=3 codec=qsgd4b512 final_loss=0.1234 final_acc=0.8750 model=<sha256>
//
// # Fault handling
//
// A health plane runs beside the mesh (see repro/health): heartbeats
// every -heartbeat over dedicated control links, a phi-or-deadline
// failure detector, and a coordinated abort so that when any rank dies
// every survivor unblocks with the same verdict instead of hanging.
// The coordinator's -heartbeat/-heartbeat-timeout govern the whole
// session; -heartbeat 0 on rank 0 turns the plane off. -step-deadline
// additionally bounds one synchronous step's wall time.
//
// # Elastic sessions
//
// With -rejoin-window set on the coordinator, a death verdict becomes
// recoverable (see repro/elastic): survivors quiesce at the next step
// barrier and hold a rejoin barrier open for the window, waiting for a
// replacement to claim the dead rank's slot. A supervisor reacting to
// the death relaunches the rank with the same flags plus -rejoin:
//
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 2 -world 3 -rejoin ...
//
// # Observability
//
// -metrics-addr serves this rank's observability plane over HTTP:
// /metrics (Prometheus text: wire and control bytes, per-peer link
// traffic, phi suspicion, step and phase histograms), /debug/vars,
// /debug/pprof, and /trace (the step-phase span ring as JSONL).
// -trace-out appends every span to a file; feed it to cmd/lpsgd-trace
// to diff the live timeline against the discrete-event simulator.
// Each rank needs its own address (or none) — the plane is per
// process.
//
// -telemetry-every N additionally samples convergence telemetry every
// N steps — step loss, per-tensor gradient norms, and the live
// quantisation RMSE and compression ratio of the negotiated policy,
// probed on a scratch copy of the gradients so training stays
// bit-identical — and broadcasts the snapshot to every peer over the
// heartbeat control links (the bytes count under the control-plane
// ledger, never the data mesh). Every rank therefore holds the whole
// cluster's view; with -metrics-addr it is served at /cluster/metrics
// (Prometheus text) and /cluster/status (JSON) beside the per-process
// endpoints. Watch it live with cmd/lpsgd-top.
//
// The replacement receives the full session state (weights, momentum,
// step and data cursors) from a surviving donor and training resumes;
// under residual-free policies (32bit, the QSGD family) the final
// digests are bit-identical to a run that never lost the rank.
// -max-rejoins caps how many repairs one process tolerates.
//
// Exit codes are distinct so an external supervisor can decide
// restart-vs-fail without parsing stderr:
//
//	0  success — trained, digest printed
//	1  internal failure (training error, checkpoint I/O)
//	2  usage or configuration error (bad flags, unknown task,
//	   unloadable or mismatched -load checkpoint)
//	3  rendezvous failure (cannot join, rejected hello, negotiation)
//	4  peer-death abort (a peer was declared dead mid-run and — in an
//	   elastic session — the rejoin window closed without a
//	   replacement; restarting the whole cluster is the sensible
//	   reaction, restarting this rank alone is not)
//	5  rejoin failure (-rejoin could not re-enter the session: the
//	   window expired before the barrier opened, the slot was taken,
//	   or no live session exists; relaunching with -rejoin is only
//	   useful while survivors are still holding the barrier)
package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/cluster"
	"repro/elastic"
	"repro/health"
	"repro/internal/harness"
	"repro/internal/runflags"
	"repro/lpsgd"
)

// Exit codes, documented in the command comment above and asserted by
// the cluster e2e tests.
const (
	exitOK         = 0
	exitInternal   = 1
	exitUsage      = 2
	exitRendezvous = 3
	exitPeerDeath  = 4
	exitRejoin     = 5
)

// exitCodeFor maps a training-time error to the exit code contract: a
// health-plane death verdict is the restart-the-cluster code, anything
// else is an internal failure.
func exitCodeFor(err error) int {
	var dead health.ErrPeerDead
	if errors.As(err, &dead) {
		return exitPeerDeath
	}
	return exitInternal
}

func main() {
	rf := runflags.Register(flag.CommandLine, "lpsgd-worker", runflags.Defaults{
		Epochs: 4, TrainSamples: 384, TestSamples: 192,
	})
	var (
		coordAddr = flag.String("coordinator", "127.0.0.1:7070", "rendezvous address (rank 0 listens, others dial)")
		rank      = flag.Int("rank", 0, "this process's rank in [0, world)")
		world     = flag.Int("world", 2, "total number of worker processes")
		accept    = flag.String("accept", "32bit", "comma-separated policy strings this rank accepts (quant.ParsePolicy grammar), advertised after -policy")
		joinWait  = flag.Duration("join-timeout", 30*time.Second, "rendezvous handshake timeout (raise for hand-launched multi-machine runs; with -rejoin it bounds the wait for the rejoin barrier too)")
		rejoin    = flag.Bool("rejoin", false, "join as the replacement for a dead rank of a running elastic session instead of forming a fresh one")
	)
	flag.Parse()
	if err := rf.Validate(); err != nil {
		runflags.Fail(exitUsage, err)
	}
	if *rejoin && rf.Load != "" {
		runflags.Fail(exitUsage, fmt.Errorf("lpsgd-worker: -rejoin receives its state from the session snapshot; -load would overwrite it"))
	}

	model, train, test, err := harness.Task(rf.Task, rf.TrainSamples, rf.TestSamples, rf.Seed)
	if err != nil {
		runflags.Fail(exitUsage, err)
	}
	var names []string
	if rf.Policy != "" {
		names = append(names, rf.Policy)
	}
	for _, name := range strings.Split(*accept, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}

	// Observability plane: per-process registry and tracer. The HTTP
	// server lives until the process exits; the trace sink is flushed
	// on every exit path that follows training.
	plane, err := rf.Plane(*world)
	if err != nil {
		runflags.Fail(exitUsage, err)
	}

	cfg := rf.ClusterConfig(*coordAddr, *rank, *world, names, plane.Tracer)
	cfg.Timeout = *joinWait

	// Three ways into a session: rank 0 goes through the explicit
	// coordinator path so that a ":0" rendezvous port is printed before
	// the other ranks need it; -rejoin claims a dead rank's slot in a
	// running session; everyone else dials a fresh rendezvous.
	var sess *cluster.Session
	var snap *elastic.Snapshot
	switch {
	case *rejoin:
		if sess, snap, err = cluster.Rejoin(cfg); err != nil {
			runflags.Fail(exitRejoin, err)
		}
	case *rank == 0:
		coord, err := cluster.NewCoordinator(cfg)
		if err != nil {
			runflags.Fail(exitRendezvous, err)
		}
		fmt.Printf("coordinator %s\n", coord.Addr())
		if sess, err = coord.Join(); err != nil {
			runflags.Fail(exitRendezvous, err)
		}
	default:
		if sess, err = cluster.Join(cfg); err != nil {
			runflags.Fail(exitRendezvous, err)
		}
	}
	hbNote := "health plane off"
	if m := sess.Monitor(); m != nil {
		hc := m.Config()
		hbNote = fmt.Sprintf("heartbeat %v, timeout %v", hc.Interval, hc.Timeout)
	}
	if el := sess.Elastic(); el.Enable {
		hbNote += fmt.Sprintf(", rejoin window %v", el.RejoinWindow)
	}
	role := "up"
	if *rejoin {
		role = fmt.Sprintf("rejoined (generation %d, resuming at step %d)", sess.Generation(), snap.Step)
	}
	fmt.Fprintf(os.Stderr, "lpsgd-worker: rank %d/%d %s, negotiated policy %s (%s)\n",
		sess.Rank(), sess.World(), role, sess.PolicyName(), hbNote)

	plane.SetPolicy(sess.PolicyName())
	opts := append([]lpsgd.Option{
		lpsgd.WithClusterSession(sess),
		lpsgd.WithStepDeadline(rf.StepDeadline),
		lpsgd.WithBatchSize(rf.Batch),
		lpsgd.WithEpochs(rf.Epochs),
		lpsgd.WithLearningRate(float32(rf.LR)),
		lpsgd.WithSeed(rf.Seed),
	}, plane.Options()...)
	trainer, err := lpsgd.NewTrainer(model, opts...)
	if err != nil {
		sess.Close()
		runflags.Fail(exitInternal, err)
	}
	if snap != nil {
		if err := trainer.Restore(snap); err != nil {
			trainer.Close()
			runflags.Fail(exitInternal, err)
		}
	}
	if rf.Load != "" {
		f, err := os.Open(rf.Load)
		if err != nil {
			trainer.Close()
			runflags.Fail(exitUsage, err)
		}
		err = trainer.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			trainer.Close()
			runflags.Fail(exitUsage, fmt.Errorf("lpsgd-worker: load checkpoint: %w", err))
		}
		fmt.Fprintf(os.Stderr, "lpsgd-worker: rank %d warm-started from %s\n", sess.Rank(), rf.Load)
	}

	h, err := trainer.Run(train, test)
	if err != nil {
		code := exitCodeFor(err)
		// Close before exiting so a non-fatal error still says a clean
		// bye; after a death verdict the mesh is already aborted and
		// Close is cheap.
		trainer.Close()
		plane.Close()
		runflags.Fail(code, err)
	}

	var ckpt bytes.Buffer
	if err := trainer.SaveCheckpoint(&ckpt); err != nil {
		trainer.Close()
		runflags.Fail(exitInternal, err)
	}
	if rf.Save != "" {
		if err := os.WriteFile(rf.Save, ckpt.Bytes(), 0o644); err != nil {
			trainer.Close()
			runflags.Fail(exitInternal, err)
		}
	}
	if s := trainer.StepStats(); s.Slowest >= 0 {
		fmt.Fprintf(os.Stderr, "lpsgd-worker: straggler report: rank %d gated the last step (compute %v, exchange %v)\n",
			s.Slowest, s.Compute[s.Slowest].Round(time.Microsecond), s.Exchange[s.Slowest].Round(time.Microsecond))
	}
	last := h.Epochs[len(h.Epochs)-1]
	fmt.Printf("rank=%d world=%d codec=%s final_loss=%.4f final_acc=%.4f model=%x\n",
		sess.Rank(), sess.World(), sess.PolicyName(),
		last.TrainLoss, h.FinalAccuracy, sha256.Sum256(ckpt.Bytes()))
	// The deliberate Close (not a defer skipped by os.Exit) sends the
	// health plane's bye before the process vanishes, so peers still
	// mid-shutdown see a departure, not a death.
	trainer.Close()
	plane.Close()
	os.Exit(exitOK)
}
