// Command livebench is the repository's benchmark: a live world of two
// rank processes training over loopback TCP through the public API
// (cluster.Join, parallel.NewTrainer, Trainer.Run), timed from outside.
//
//	bash livebench/run.sh --workload fc-qsgd4 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 every episode is timed with one stamp per step boundary
// and the end-to-end metrics are printed; with --trace 1 timed and
// traced episodes alternate and the per-layer metrics are printed (see
// METRICS.md). The last line of standard output is the result object;
// the line before it records the host and the inputs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "rank" {
		if err := rankMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "livebench rank:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: fc-qsgd4, fc-fp32 or conv-qsgd4")
	seed := flag.Uint64("seed", 1, "workload seed: data, initial weights, shuffling and rounding streams")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(2)
	}
	d := &launcher{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := d.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"ledger": d.ledger(res)}); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res.output(d.traced)); err != nil {
		os.Exit(1)
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "livebench: correctness checks failed:", res.problems)
		os.Exit(1)
	}
}

// launcher starts the two rank processes and sequences their episodes.
type launcher struct {
	w      *workload
	seed   uint64
	budget time.Duration
	traced bool

	ranks [world]*rankProc
	rss   [world]int64 // peak RSS in KiB, read at exit
}

func (d *launcher) spansPath(rank int) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d-rank%d.jsonl", d.w.name, d.seed, rank))
}

// episodeTimeout bounds one episode; an episode takes a few seconds.
const episodeTimeout = 90 * time.Second

func (d *launcher) run() (*results, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for r := range d.ranks {
		args := []string{"rank", "-workload", d.w.name, "-seed", fmt.Sprint(d.seed), "-rank", fmt.Sprint(r), "-addr", addr}
		if d.traced {
			args = append(args, "-spans", d.spansPath(r))
		}
		p, err := startRank(self, args)
		if err != nil {
			d.kill()
			return nil, err
		}
		d.ranks[r] = p
	}
	for _, p := range d.ranks {
		if _, err := p.await("ready", episodeTimeout); err != nil {
			d.kill()
			return nil, err
		}
	}
	res := &results{w: d.w}
	err = d.episodes(res)
	if err != nil {
		d.kill()
		res.fail(err.Error())
	} else if err := d.quit(); err != nil {
		res.fail(err.Error())
	}
	res.rssKiB = max(d.rss[0], d.rss[1])
	res.finish()
	return res, nil
}

// episodes runs episodes until the budget is spent. With tracing, one
// K=1 run comes first and timed and traced K=2 episodes alternate.
func (d *launcher) episodes(res *results) error {
	start := time.Now()
	id := 0
	if d.traced {
		r, err := d.solo(id)
		if err != nil {
			return err
		}
		res.add([]episodeResult{r})
		id++
	}
	var last time.Duration
	for {
		minDone := res.count(modeTimed) >= 3 && (!d.traced || res.count(modeTraced) >= 2)
		if minDone && time.Since(start)+last/2 > d.budget {
			return nil
		}
		mode := modeTimed
		if d.traced && id%2 == 0 {
			mode = modeTraced
		}
		t0 := time.Now()
		rs, err := d.episode(mode, id)
		if err != nil {
			return err
		}
		last = time.Since(t0)
		res.add(rs)
		id++
	}
}

// episode runs one K=2 episode. Rank 0 joins first, so the rendezvous
// listener is up before rank 1 dials, and setup is timed from rank 1's
// Join call.
func (d *launcher) episode(mode string, id int) ([]episodeResult, error) {
	if err := d.ranks[0].send(command{Mode: mode, ID: id}); err != nil {
		return nil, err
	}
	if _, err := d.ranks[0].await("joining", episodeTimeout); err != nil {
		return nil, err
	}
	time.Sleep(5 * time.Millisecond)
	if err := d.ranks[1].send(command{Mode: mode, ID: id}); err != nil {
		return nil, err
	}
	if _, err := d.ranks[1].await("joining", episodeTimeout); err != nil {
		return nil, err
	}
	out := make([]episodeResult, world)
	for r, p := range d.ranks {
		m, err := p.await("episode", episodeTimeout)
		if err != nil {
			return nil, err
		}
		out[r] = *m.Result
	}
	return out, nil
}

func (d *launcher) solo(id int) (episodeResult, error) {
	if err := d.ranks[0].send(command{Mode: modeSolo, ID: id}); err != nil {
		return episodeResult{}, err
	}
	m, err := d.ranks[0].await("episode", episodeTimeout)
	if err != nil {
		return episodeResult{}, err
	}
	return *m.Result, nil
}

// quit stops the ranks, waits for them and reads their peak RSS.
func (d *launcher) quit() error {
	var errs []error
	for _, p := range d.ranks {
		if err := p.send(command{Mode: modeQuit}); err != nil {
			errs = append(errs, err)
		}
	}
	for r, p := range d.ranks {
		err := p.wait(episodeTimeout)
		if err != nil {
			errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
		}
		if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.rss[r] = ru.Maxrss
		}
	}
	return errors.Join(errs...)
}

func (d *launcher) kill() {
	for _, p := range d.ranks {
		if p != nil {
			p.cmd.Process.Kill()
			p.wait(episodeTimeout)
		}
	}
}

// ledger records the host and the inputs beside every result.
func (d *launcher) ledger(res *results) map[string]any {
	l := map[string]any{
		"host": map[string]any{
			"nproc":           runtime.NumCPU(),
			"rank_gomaxprocs": 1,
			"ranks":           world,
			"go":              runtime.Version(),
			"cpu":             cpuModel(),
			"commit":          gitCommit(),
		},
		"inputs": map[string]any{
			"workload":          d.w.name,
			"why":               d.w.why,
			"seed":              d.seed,
			"policy":            d.w.policy,
			"global_batch":      d.w.batch,
			"steps_per_episode": d.w.stepsPerEpisode(),
			"budget_s":          d.budget.Seconds(),
		},
		"episodes":     res.episodes,
		"step_samples": len(res.stepNs),
	}
	var eps []float64
	for _, ep := range res.timed {
		eps = append(eps, sps(ep))
	}
	l["timed_samples_per_s"] = eps
	if d.traced {
		l["spans"] = []string{d.spansPath(0), d.spansPath(1)}
	}
	if len(res.problems) > 0 {
		l["problems"] = res.problems
	}
	return l
}
