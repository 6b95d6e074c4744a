package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/cluster"
	"repro/comm"
	"repro/data"
	"repro/nn"
	"repro/parallel"
)

// Episode modes the launcher asks a rank for.
const (
	modeTimed  = "timed"  // K=2 run, only the step-boundary stamp
	modeTraced = "traced" // K=2 run with layer and transport spans, then probes
	modeSolo   = "solo"   // in-process K=1 run of the same task, rank 0 only
	modeQuit   = "quit"
)

// command is one launcher-to-rank line.
type command struct {
	Mode string `json:"mode"`
	ID   int    `json:"id"`
}

// message is one rank-to-launcher line.
type message struct {
	Event  string         `json:"event"` // "ready", "joining" or "episode"
	Result *episodeResult `json:"result,omitempty"`
}

// episodeResult is what one rank reports about one training run.
// Wall-clock times are Unix nanoseconds (the ranks share a host clock);
// durations are nanoseconds.
type episodeResult struct {
	Rank    int    `json:"rank"`
	ID      int    `json:"id"`
	Mode    string `json:"mode"`
	Err     string `json:"err,omitempty"`
	Steps   int    `json:"steps"`
	Samples int    `json:"samples"`

	JoinCall    int64 `json:"join_call"`
	JoinDone    int64 `json:"join_done"`
	TrainerDone int64 `json:"trainer_done"`
	RunNs       int64 `json:"run_ns"`
	// StepNs are the intervals between consecutive step boundaries.
	StepNs []int64 `json:"step_ns"`

	WireBytes      int64   `json:"wire_bytes"`
	PredictedWire  int64   `json:"predicted_wire"` // per exchange, all ranks
	ControlBytes   int64   `json:"control_bytes"`
	CompressionRat float64 `json:"compression_ratio"`
	Digest         string  `json:"digest"`
	Loss           float64 `json:"loss"`

	CPUNs      int64  `json:"cpu_ns"` // user+system over Run
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`

	Layers *layerTotals `json:"layers,omitempty"`
	Probe  *probeResult `json:"probe,omitempty"`
	spans  []spanRecord // kept by the rank process, written at exit
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runEpisode is one rank's share of a K=2 training run: join, build the
// trainer over the session, train, digest and close. onJoin is called
// just before cluster.Join.
func runEpisode(w *workload, train, test *data.Dataset, seed uint64, rank int, addr string, traced bool, id int, onJoin func()) (res episodeResult) {
	res = episodeResult{Rank: rank, ID: id, Mode: modeTimed}
	if traced {
		res.Mode = modeTraced
	}
	fail := func(err error) episodeResult {
		res.Err = err.Error()
		return res
	}
	rec := newRecorder(traced, w.stepsPerEpisode())
	onJoin()
	res.JoinCall = time.Now().UnixNano()
	sess, err := cluster.Join(cluster.Config{Addr: addr, Rank: rank, World: world, Accept: []string{w.policy}})
	if err != nil {
		return fail(err)
	}
	res.JoinDone = time.Now().UnixNano()
	var fabric comm.Transport = sess.Fabric()
	if traced {
		fabric = &tracedFabric{RemoteFabric: sess.Fabric(), rec: rec}
	}
	cfg := w.config(seed)
	cfg.Workers, cfg.Rank = world, rank
	cfg.Fabric, cfg.Monitor, cfg.Policy = fabric, sess.Monitor(), sess.Policy()
	tr, err := parallel.NewTrainer(wrapBuild(w.build, rec), cfg)
	if err != nil {
		sess.Close()
		return fail(err)
	}
	res.TrainerDone = time.Now().UnixNano()
	defer tr.Close()
	hist, err := runMeasured(tr, train, test, &res)
	rec.runEnd = rec.now()
	if err != nil {
		return fail(err)
	}
	if err := finishRun(&res, rec, hist, w); err != nil {
		return fail(err)
	}
	res.WireBytes = tr.WireBytes()
	res.ControlBytes = tr.ControlBytes()
	plan := tr.Plan()
	res.CompressionRat = float64(plan.RawBytes()) / float64(plan.WireBytes())
	params := tr.Model().Params()
	specs := make([]comm.TensorSpec, len(params))
	for i, p := range params {
		specs[i] = comm.TensorSpec{Name: p.Name, N: p.Grad.Len(), Wire: p.WireShape, Codec: plan.CodecFor(i)}
	}
	res.PredictedWire = comm.ReduceBroadcastWireBytes(specs, world, true)
	h := sha256.New()
	if err := tr.SaveCheckpoint(h); err != nil {
		return fail(err)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	if !traced {
		return res
	}
	net := tr.Model()
	dense := make([]bool, len(net.Layers))
	names := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		inner := l.(*timedLayer).Layer
		_, dense[i] = inner.(*nn.Dense)
		names[i] = inner.Name()
	}
	lt := rec.reduce(func(i int) bool { return dense[i] })
	res.Layers = &lt
	res.spans = rec.records(rank, id, func(i int) string { return names[i] })
	encNs, decNs, encBytes, err := codecProbe(plan, params, rank)
	if err != nil {
		return fail(fmt.Errorf("codec probe: %w", err))
	}
	res.Probe = &probeResult{
		EncodeNs:    encNs,
		DecodeNs:    decNs,
		EncodeBytes: encBytes,
		SGDNs:       sgdProbe(w.build, params, w.lr, w.momentum, seed),
		GatherNs:    gatherProbe(train, w.batch/world, seed),
		ZeroShare:   zeroShare(params),
	}
	return res
}

// runMeasured runs the trainer between CPU and allocation readings.
func runMeasured(tr *parallel.Trainer, train, test *data.Dataset, res *episodeResult) (*parallel.History, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuNs()
	t0 := time.Now()
	hist, err := tr.Run(train, test)
	res.RunNs = int64(time.Since(t0))
	res.CPUNs = cpuNs() - c0
	runtime.ReadMemStats(&m1)
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return hist, err
}

// finishRun fills the step counts, step intervals and final loss. A
// loss that is not finite is reported as an error (JSON has no NaN).
func finishRun(res *episodeResult, rec *recorder, hist *parallel.History, w *workload) error {
	rec.mu.Lock()
	stamps := append([]int64(nil), rec.stamps...)
	rec.mu.Unlock()
	res.Steps = len(stamps)
	res.Samples = res.Steps * w.batch
	for i := 1; i < len(stamps); i++ {
		res.StepNs = append(res.StepNs, stamps[i]-stamps[i-1])
	}
	if n := len(hist.Epochs); n > 0 {
		res.Loss = hist.Epochs[n-1].TrainLoss
	}
	if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
		res.Loss = 0
		return errors.New("final epoch's train loss is not finite")
	}
	return nil
}

// runSolo trains the same task in process as a single-worker run: the
// K=1 baseline of the scaling efficiency.
func runSolo(w *workload, train, test *data.Dataset, seed uint64, id int) (res episodeResult) {
	res = episodeResult{ID: id, Mode: modeSolo}
	rec := newRecorder(false, w.stepsPerEpisode())
	cfg := w.config(seed)
	cfg.Workers = 1
	tr, err := parallel.NewTrainer(wrapBuild(w.build, rec), cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer tr.Close()
	hist, err := runMeasured(tr, train, test, &res)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if err := finishRun(&res, rec, hist, w); err != nil {
		res.Err = err.Error()
	}
	return res
}

// rankMain is the entry point of a rank process. It generates the
// workload's data from the seed, then runs the episodes the launcher asks
// for on standard input, one JSON line each way, until told to quit.
func rankMain(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	rank := fs.Int("rank", 0, "rank in [0, 2)")
	addr := fs.String("addr", "", "rendezvous address")
	spansOut := fs.String("spans", "", "write the traced episodes' spans here as JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	train, test := w.data(w.stepsPerEpoch*w.batch, w.testN, *seed)
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(message{Event: "ready"}); err != nil {
		return err
	}
	var spans []spanRecord
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var cmd command
		if err := json.Unmarshal(in.Bytes(), &cmd); err != nil {
			return fmt.Errorf("rank %d: bad command: %w", *rank, err)
		}
		var res episodeResult
		switch cmd.Mode {
		case modeQuit:
			return writeSpans(*spansOut, spans)
		case modeSolo:
			res = runSolo(w, train, test, *seed, cmd.ID)
		case modeTimed, modeTraced:
			var joinErr error
			res = runEpisode(w, train, test, *seed, *rank, *addr, cmd.Mode == modeTraced, cmd.ID, func() {
				joinErr = out.Encode(message{Event: "joining"})
			})
			if joinErr != nil {
				return joinErr
			}
			spans = append(spans, res.spans...)
		default:
			return fmt.Errorf("rank %d: unknown mode %q", *rank, cmd.Mode)
		}
		if err := out.Encode(message{Event: "episode", Result: &res}); err != nil {
			return err
		}
	}
	if err := in.Err(); err != nil {
		return err
	}
	return errors.New("launcher closed the command stream without quit")
}

func writeSpans(path string, spans []spanRecord) error {
	if path == "" || len(spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
