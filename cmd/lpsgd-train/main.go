// Command lpsgd-train runs real quantised data-parallel training on one
// of the synthetic tasks and reports accuracy per epoch — the
// reproduction's equivalent of launching a CNTK training job with a
// chosen gradient precision.
//
// Examples:
//
//	lpsgd-train -task image -policy qsgd4 -workers 8 -epochs 20
//	lpsgd-train -task sequence -policy 1bit -workers 2 -nccl
//	lpsgd-train -task image -policy "qsgd4b512;*.b=32bit" -workers 4
//
// -policy accepts the full precision-policy grammar (quant.ParsePolicy):
// base codec, small-matrix exemption target, and per-tensor pattern
// rules; a bare codec name is a valid policy. -save writes the
// trained model as an nn checkpoint and -load warm-starts from one; in
// cluster mode the same checkpoint is loaded by every forked rank, so
// the replica invariant holds from the first exchange.
//
// With -cluster N the run becomes a single-machine multi-process smoke
// test of the cluster runtime: this process is rank 0 and coordinator,
// and it forks N−1 copies of itself as worker processes that join the
// rendezvous, negotiate the policy, and train over the dialled TCP
// mesh (for real multi-machine runs, launch cmd/lpsgd-worker on each
// host instead):
//
//	lpsgd-train -task image -policy qsgd4 -cluster 3 -epochs 6
//
// -metrics-addr serves the observability plane over HTTP (/metrics in
// Prometheus text format, /debug/vars, /debug/pprof, /trace as JSONL)
// and -trace-out appends the step-phase trace to a file for offline
// comparison against the simulator via cmd/lpsgd-trace. Neither flag
// is forwarded to forked cluster workers (they would collide on the
// port or interleave in the file); rank 0's plane observes its own
// ranks only.
//
// -telemetry-every N samples convergence telemetry (step loss,
// per-tensor gradient norms, live quantisation RMSE and compression
// of the negotiated policy) every N steps. Unlike the plane flags it
// IS forwarded to forked workers: each rank broadcasts its snapshots
// over the heartbeat control links, rank 0 aggregates the whole
// cluster, and with -metrics-addr the view is served at
// /cluster/metrics and /cluster/status. Watch it live:
//
//	lpsgd-train -task image -policy qsgd4 -cluster 3 \
//	    -telemetry-every 10 -metrics-addr 127.0.0.1:9090 &
//	lpsgd-top -addr 127.0.0.1:9090
//
// The flags lpsgd-worker shares (internal/runflags) are validated
// before anything is forked, and forked ranks inherit all of them
// except the per-process -metrics-addr, -trace-out and -save.
//
// Cluster runs carry a health plane: -heartbeat/-heartbeat-timeout
// tune the failure detector (a dead rank aborts every survivor with a
// typed verdict instead of hanging the mesh), and -step-deadline
// bounds one synchronous step's wall time. With -rejoin-window the
// cluster is additionally elastic: when a forked rank dies, the
// supervisor in this process re-forks it with the internal
// -cluster-rejoin flag, the replacement re-enters the session through
// the rendezvous rejoin barrier and receives the training state from a
// surviving donor, and the run completes as if nothing happened. See
// cmd/lpsgd-worker for the exit-code contract external supervisors can
// build on.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"repro/cluster"
	"repro/elastic"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/runflags"
	"repro/lpsgd"
)

func main() {
	rf := runflags.Register(flag.CommandLine, "lpsgd-train", runflags.Defaults{
		Policy: "32bit", Epochs: 12, TrainSamples: 768, TestSamples: 384,
	})
	var (
		workers     = flag.Int("workers", 4, "simulated GPU count")
		useNCCL     = flag.Bool("nccl", false, "use the NCCL ring instead of MPI reduce-and-broadcast")
		clusterN    = flag.Int("cluster", 0, "train as a cluster of this many worker processes (this process is rank 0; it forks the rest)")
		clusterAddr = flag.String("cluster-addr", "", "internal: rendezvous address of the parent coordinator (marks a forked worker)")
		clusterRank = flag.Int("cluster-rank", 0, "internal: rank of a forked worker")
		clusterRejo = flag.Bool("cluster-rejoin", false, "internal: this forked worker replaces a dead rank of the running session")
	)
	flag.Parse()
	if err := rf.Validate(); err != nil {
		runflags.Fail(2, err)
	}

	model, train, test, err := harness.Task(rf.Task, rf.TrainSamples, rf.TestSamples, rf.Seed)
	if err != nil {
		runflags.Fail(2, err)
	}

	primitive := lpsgd.MPI
	if *useNCCL {
		primitive = lpsgd.NCCL
	}
	opts := []lpsgd.Option{
		lpsgd.WithPolicy(rf.Policy),
		lpsgd.WithWorkers(*workers),
		lpsgd.WithPrimitive(primitive),
		lpsgd.WithBatchSize(rf.Batch),
		lpsgd.WithEpochs(rf.Epochs),
		lpsgd.WithLearningRate(float32(rf.LR)),
		lpsgd.WithSeed(rf.Seed),
		lpsgd.WithStepDeadline(rf.StepDeadline),
	}
	// The telemetry hub aggregates every rank's snapshots into the
	// /cluster/{metrics,status} view; forked workers ship theirs over
	// the control plane, so only this process serves one. Rank 0's
	// registry and tracer observe its own ranks only.
	plane, err := rf.Plane(max(*clusterN, 1))
	if err != nil {
		runflags.Fail(2, err)
	}
	defer plane.Close()
	opts = append(opts, plane.Options()...)

	// Cluster smoke mode: rank 0 coordinates on an ephemeral port and
	// forks the other ranks as copies of this binary; forked workers
	// recognise themselves by -cluster-addr and dial back in. All ranks
	// train the same task with the same seed, so the mesh replicas stay
	// bit-identical.
	isChild := *clusterAddr != ""
	accept := []string{rf.Policy}
	var restore *elastic.Snapshot
	var super *reforker
	switch {
	case isChild && *clusterRejo:
		// A re-forked replacement: claim the dead rank's slot in the
		// running session and receive the training state from a donor.
		// The dial budget must outlast the survivors' failure detection
		// (the barrier only opens once they reach their verdict) plus
		// the window itself — the 30s default would silently defeat a
		// long window under slow detection.
		cfg := rf.ClusterConfig(*clusterAddr, *clusterRank, *clusterN, accept, plane.Tracer)
		cfg.Timeout = cfg.Health.Resolved().Timeout + cfg.Elastic.Resolved().RejoinWindow + 30*time.Second
		sess, snap, err := cluster.Rejoin(cfg)
		if err != nil {
			runflags.Fail(5, err)
		}
		fmt.Fprintf(os.Stderr, "rank %d rejoined (generation %d, resuming at step %d)\n",
			sess.Rank(), sess.Generation(), snap.Step)
		restore = snap
		opts = append(opts, lpsgd.WithClusterSession(sess))
	case isChild:
		sess, err := cluster.Join(rf.ClusterConfig(*clusterAddr, *clusterRank, *clusterN, accept, plane.Tracer))
		if err != nil {
			runflags.Fail(1, err)
		}
		opts = append(opts, lpsgd.WithClusterSession(sess))
	case *clusterN > 0:
		coord, err := cluster.NewCoordinator(rf.ClusterConfig("127.0.0.1:0", 0, *clusterN, accept, plane.Tracer))
		if err != nil {
			runflags.Fail(1, err)
		}
		exe, err := os.Executable()
		if err != nil {
			runflags.Fail(1, err)
		}
		childArgs := func(r int, rejoin bool) []string {
			args := append(rf.Forward(),
				"-cluster", strconv.Itoa(*clusterN),
				"-cluster-addr", coord.Addr(), "-cluster-rank", strconv.Itoa(r))
			if rejoin {
				// A rejoining replacement gets its state from the
				// session snapshot; a forwarded warm start would
				// overwrite it.
				args = append(args, "-cluster-rejoin", "-load=")
			}
			// Every rank must run the same aggregation primitive.
			if *useNCCL {
				args = append(args, "-nccl")
			}
			return args
		}
		super = newReforker(exe, childArgs, rf.RejoinWindow > 0, rf.MaxRejoins)
		for r := 1; r < *clusterN; r++ {
			if err := super.start(r, false); err != nil {
				runflags.Fail(1, fmt.Errorf("fork rank %d: %w", r, err))
			}
		}
		sess, err := coord.Join()
		if err != nil {
			runflags.Fail(1, err)
		}
		opts = append(opts, lpsgd.WithClusterSession(sess))
	}

	trainer, err := lpsgd.NewTrainer(model, opts...)
	if err != nil {
		runflags.Fail(1, err)
	}
	defer trainer.Close()
	plane.SetPolicy(trainer.Policy().Name())
	if restore != nil {
		if err := trainer.Restore(restore); err != nil {
			runflags.Fail(1, err)
		}
	}
	if rf.Load != "" {
		f, err := os.Open(rf.Load)
		if err != nil {
			runflags.Fail(1, err)
		}
		err = trainer.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			runflags.Fail(1, fmt.Errorf("load checkpoint: %w", err))
		}
		fmt.Printf("resumed from %s\n", rf.Load)
	}
	h, err := trainer.Run(train, test)
	if err != nil {
		plane.Close() // flush -trace-out before the exit skips the defers
		runflags.Fail(1, err)
	}
	if rf.Save != "" {
		f, err := os.Create(rf.Save)
		if err != nil {
			runflags.Fail(1, err)
		}
		err = trainer.SaveCheckpoint(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			runflags.Fail(1, fmt.Errorf("save checkpoint: %w", err))
		}
		fmt.Printf("checkpoint written to %s\n", rf.Save)
	}

	if isChild {
		// Forked workers share the parent's terminal; a one-line summary
		// keeps the parent's table readable.
		fmt.Printf("rank %d/%d: policy=%s final accuracy %.2f%%, %.1f MB sent by this rank\n",
			trainer.Rank(), trainer.World(), trainer.Policy().Name(),
			100*h.FinalAccuracy, float64(h.TotalWireBytes)/1e6)
		return
	}

	prim := "MPI"
	if *useNCCL {
		prim = "NCCL"
	}
	policyName := trainer.Policy().Name()
	world := *workers
	wireCol := "wire_MB"
	wireNote := ""
	if *clusterN > 0 {
		world = trainer.World()
		prim += fmt.Sprintf(", cluster of %d processes", *clusterN)
		// A cluster rank's byte counter sees its own sends only — the
		// other ranks' traffic lives in their processes — so the volume
		// is not comparable to the whole-fabric number of a
		// single-process run.
		wireCol = "rank0_wire_MB"
		wireNote = " sent by rank 0"
	}
	t := report.New(
		fmt.Sprintf("%s task, policy=%s, %d workers, %s", rf.Task, policyName, world, prim),
		"epoch", "train_loss", "test_acc_%", "lr", wireCol, "elapsed")
	for _, e := range h.Epochs {
		acc := "-"
		if e.TestAccuracy >= 0 {
			acc = fmt.Sprintf("%.1f", 100*e.TestAccuracy)
		}
		t.Addf("%d\t%.4f\t%s\t%.4f\t%.1f\t%s",
			e.Epoch, e.TrainLoss, acc, e.LR, float64(e.WireBytes)/1e6, e.Elapsed.Round(1e6))
	}
	t.Note("final accuracy %.2f%%, best %.2f%%, total wire %.1f MB%s",
		100*h.FinalAccuracy, 100*h.BestAccuracy, float64(h.TotalWireBytes)/1e6, wireNote)
	t.Render(os.Stdout)

	if super != nil {
		if err := super.wait(); err != nil {
			runflags.Fail(1, err)
		}
	}
}

// reforker supervises the forked worker ranks of a -cluster run: it
// waits on each child and — when the session is elastic — re-forks a
// rank that died abnormally with -cluster-rejoin, up to the configured
// budget, so a killed rank rejoins the session instead of sinking the
// whole run.
type reforker struct {
	exe     string
	args    func(rank int, rejoin bool) []string
	elastic bool

	mu      sync.Mutex
	wg      sync.WaitGroup
	budget  int
	failure error
}

func newReforker(exe string, args func(int, bool) []string, elasticOn bool, maxRejoins int) *reforker {
	budget := maxRejoins
	if budget == 0 {
		budget = elastic.DefaultMaxRejoins
	}
	return &reforker{exe: exe, args: args, elastic: elasticOn, budget: budget}
}

// start forks one rank and watches it from a goroutine.
func (s *reforker) start(rank int, rejoin bool) error {
	child := exec.Command(s.exe, s.args(rank, rejoin)...)
	child.Stdout = os.Stdout
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := child.Wait()
		if err == nil {
			return
		}
		// Only a rank that was killed by a signal is a candidate for
		// repair — that is the "process died, session still running"
		// signature. A child that exits with a code of its own (bad
		// flags, rendezvous rejection, training failure, a lost
		// session) has a real error to report, and re-forking it into
		// a rejoin barrier that does not exist would only bury it.
		var ee *exec.ExitError
		killed := errors.As(err, &ee) && ee.ExitCode() == -1
		s.mu.Lock()
		// A negative budget means unlimited repairs.
		refork := s.elastic && killed && s.budget != 0
		if refork && s.budget > 0 {
			s.budget--
		} else if !refork && s.failure == nil {
			s.failure = fmt.Errorf("cluster worker rank %d exited badly: %v", rank, err)
		}
		s.mu.Unlock()
		if refork {
			fmt.Fprintf(os.Stderr, "lpsgd-train: rank %d died (%v); re-forking it into the session\n", rank, err)
			if rerr := s.start(rank, true); rerr != nil {
				s.mu.Lock()
				if s.failure == nil {
					s.failure = fmt.Errorf("re-fork rank %d: %w", rank, rerr)
				}
				s.mu.Unlock()
			}
		}
	}()
	return nil
}

// wait blocks until every child (re-forks included) has exited and
// returns the first unrepaired failure.
func (s *reforker) wait() error {
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}
