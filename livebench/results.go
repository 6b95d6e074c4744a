package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// results collects the episodes of one invocation, checks each one and
// derives the metrics.
type results struct {
	w        *workload
	timed    [][world]episodeResult
	traced   [][world]episodeResult
	solo     []episodeResult
	episodes map[string]int
	stepNs   []int64 // rank 0's step intervals over the timed episodes

	attempted, failed int
	problems          []string
	digest            string
	rssKiB            int64
	correct           bool
}

func (r *results) fail(p string) { r.problems = append(r.problems, p) }

func (r *results) count(mode string) int { return r.episodes[mode] }

// add checks one episode and keeps it if it passes. A failed K=2
// episode counts all of its steps as failed.
func (r *results) add(rs []episodeResult) {
	if r.episodes == nil {
		r.episodes = map[string]int{}
	}
	mode := rs[0].Mode
	r.episodes[mode]++
	if mode == modeSolo {
		if rs[0].Err != "" {
			r.fail(fmt.Sprintf("solo episode %d: %s", rs[0].ID, rs[0].Err))
			return
		}
		r.solo = append(r.solo, rs[0])
		return
	}
	want := r.w.stepsPerEpisode()
	r.attempted += want
	problems := r.check(rs, want)
	if len(problems) > 0 {
		r.failed += want
		for _, p := range problems {
			r.fail(fmt.Sprintf("%s episode %d: %s", mode, rs[0].ID, p))
		}
		return
	}
	ep := [world]episodeResult{rs[0], rs[1]}
	if mode == modeTraced {
		r.traced = append(r.traced, ep)
		return
	}
	r.timed = append(r.timed, ep)
	r.stepNs = append(r.stepNs, rs[0].StepNs...)
}

// check is the correctness gate of one K=2 episode: every rank trained
// every step, all ranks hold the same model, every episode of the
// invocation (same seed, timed or traced) ends with that same model,
// the loss is finite and below chance, the measured traffic equals the
// traffic predicted from the trainer's plan, and in a traced episode the
// transport wrapper saw exactly the trainer's bytes and every step's
// spans reconcile with its wall time.
func (r *results) check(rs []episodeResult, want int) []string {
	var ps []string
	for _, e := range rs {
		if e.Err != "" {
			ps = append(ps, fmt.Sprintf("rank %d: %s", e.Rank, e.Err))
		}
	}
	if len(ps) > 0 {
		return ps
	}
	var wire int64
	var loss float64
	for _, e := range rs {
		if e.Steps != want {
			ps = append(ps, fmt.Sprintf("rank %d trained %d steps, want %d", e.Rank, e.Steps, want))
		}
		if e.Digest != rs[0].Digest {
			ps = append(ps, fmt.Sprintf("rank %d digest %.12s differs from rank 0's %.12s", e.Rank, e.Digest, rs[0].Digest))
		}
		if e.PredictedWire != rs[0].PredictedWire {
			ps = append(ps, "ranks predict different exchange volumes")
		}
		if l := e.Layers; l != nil {
			if l.EpisodeBytes != e.WireBytes {
				ps = append(ps, fmt.Sprintf("rank %d: transport wrapper saw %d bytes, trainer reports %d", e.Rank, l.EpisodeBytes, e.WireBytes))
			}
			if l.BadSteps > 0 {
				ps = append(ps, fmt.Sprintf("rank %d: %d steps' spans do not reconcile with the step time", e.Rank, l.BadSteps))
			}
		}
		wire += e.WireBytes
		loss += e.Loss / world
	}
	if r.digest == "" {
		r.digest = rs[0].Digest
	} else if rs[0].Digest != r.digest {
		ps = append(ps, fmt.Sprintf("digest %.12s differs from the invocation's first %.12s under the same seed", rs[0].Digest, r.digest))
	}
	if predicted := rs[0].PredictedWire * int64(rs[0].Steps); wire != predicted {
		ps = append(ps, fmt.Sprintf("wire bytes %d, predicted %d", wire, predicted))
	}
	if chance := math.Log(float64(r.w.classes)); !(loss < chance) {
		ps = append(ps, fmt.Sprintf("train loss %.4f not below ln(%d)=%.4f", loss, r.w.classes, chance))
	}
	return ps
}

func (r *results) finish() {
	r.correct = len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *results) output(traced bool) output {
	o := output{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	if r.attempted == 0 {
		o.Failed = 1
	}
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		o.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if traced {
		r.perLayer(set)
	} else {
		r.endToEnd(set)
	}
	return o
}

// sps is an episode's throughput: global samples over the slowest
// rank's Run.
func sps(ep [world]episodeResult) float64 {
	return float64(ep[0].Samples) / (float64(max(ep[0].RunNs, ep[1].RunNs)) / 1e9)
}

// perEpisode returns the median over episodes of f.
func perEpisode(eps [][world]episodeResult, f func([world]episodeResult) float64) float64 {
	v := make([]float64, len(eps))
	for i, ep := range eps {
		v[i] = f(ep)
	}
	return median(v)
}

// rankMean averages f over the ranks of one episode.
func rankMean(ep [world]episodeResult, f func(episodeResult) float64) float64 {
	var s float64
	for _, e := range ep {
		s += f(e)
	}
	return s / world
}

func (r *results) endToEnd(set func(string, string, float64)) {
	steps := make([]float64, len(r.stepNs))
	for i, ns := range r.stepNs {
		steps[i] = float64(ns) / 1e6
	}
	set("samples_per_s", "1/s", perEpisode(r.timed, sps))
	set("step_ms.p50", "ms", quantile(steps, 0.5))
	set("step_ms.p90", "ms", quantile(steps, 0.9))
	set("setup_s", "s", perEpisode(r.timed, func(ep [world]episodeResult) float64 {
		return float64(max(ep[0].TrainerDone, ep[1].TrainerDone)-max(ep[0].JoinCall, ep[1].JoinCall)) / 1e9
	}))
	set("wire_bytes_per_step", "bytes", perEpisode(r.timed, func(ep [world]episodeResult) float64 {
		return float64(ep[0].WireBytes+ep[1].WireBytes) / float64(ep[0].Steps)
	}))
	set("cpu_ms_per_step", "ms", perEpisode(r.timed, func(ep [world]episodeResult) float64 {
		return float64(ep[0].CPUNs+ep[1].CPUNs) / 1e6 / float64(ep[0].Steps)
	}))
	set("rss_peak_mb", "MiB", float64(r.rssKiB)/1024)
	set("steps_ok_ratio", "ratio", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
}

func (r *results) perLayer(set func(string, string, float64)) {
	// Span-derived times: per step, pooled over the traced episodes of
	// each rank, then averaged over the ranks.
	var tot [world]layerTotals
	for _, ep := range r.traced {
		for k, e := range ep {
			t, l := &tot[k], e.Layers
			t.Steps += l.Steps
			t.StepNs += l.StepNs
			t.ForwardNs += l.ForwardNs
			t.BackwardNs += l.BackwardNs
			t.DenseNs += l.DenseNs
			t.ExchangeNs += l.ExchangeNs
			t.UnattribNs += l.UnattribNs
			t.SendNs += l.SendNs
			t.RecvNs += l.RecvNs
			t.SendBytes += l.SendBytes
			t.SendMsgs += l.SendMsgs
		}
	}
	perStep := func(f func(t layerTotals) int64, scale float64) float64 {
		var s float64
		for _, t := range tot {
			s += float64(f(t)) / float64(t.Steps) / scale
		}
		return s / world
	}
	ms := func(name string, f func(t layerTotals) int64) { set(name, "ms", perStep(f, 1e6)) }
	ms("parallel.step_ms", func(t layerTotals) int64 { return t.StepNs })
	ms("nn.forward_ms", func(t layerTotals) int64 { return t.ForwardNs })
	ms("nn.backward_ms", func(t layerTotals) int64 { return t.BackwardNs })
	ms("nn.nondense_ms", func(t layerTotals) int64 { return t.ForwardNs + t.BackwardNs - t.DenseNs })
	ms("nn.dense_ms", func(t layerTotals) int64 { return t.DenseNs })
	ms("parallel.exchange_ms", func(t layerTotals) int64 { return t.ExchangeNs })
	ms("parallel.unattributed_ms", func(t layerTotals) int64 { return t.UnattribNs })
	ms("comm.send_ms", func(t layerTotals) int64 { return t.SendNs })
	ms("comm.recv_wait_ms", func(t layerTotals) int64 { return t.RecvNs })
	ms("comm.reducer_self_ms", func(t layerTotals) int64 { return t.ExchangeNs - t.SendNs - t.RecvNs })
	set("comm.bytes_per_step", "bytes", perStep(func(t layerTotals) int64 { return t.SendBytes }, 1))
	set("comm.msgs_per_step", "count", perStep(func(t layerTotals) int64 { return t.SendMsgs }, 1))

	// Probes after Run: median over the traced episodes of the rank mean.
	probe := func(f func(p *probeResult) float64) float64 {
		return perEpisode(r.traced, func(ep [world]episodeResult) float64 {
			return rankMean(ep, func(e episodeResult) float64 { return f(e.Probe) })
		})
	}
	set("quant.encode_ms", "ms", probe(func(p *probeResult) float64 { return float64(p.EncodeNs) / 1e6 }))
	set("quant.decode_ms", "ms", probe(func(p *probeResult) float64 { return float64(p.DecodeNs) / 1e6 }))
	set("quant.encode_mbps", "MB/s", probe(func(p *probeResult) float64 { return float64(p.EncodeBytes) / 1e6 / (float64(p.EncodeNs) / 1e9) }))
	set("quant.zero_share", "ratio", probe(func(p *probeResult) float64 { return p.ZeroShare }))
	set("nn.sgd_ms", "ms", probe(func(p *probeResult) float64 { return float64(p.SGDNs) / 1e6 }))
	set("data.gather_ms", "ms", probe(func(p *probeResult) float64 { return float64(p.GatherNs) / 1e6 }))
	set("quant.compression_ratio", "ratio", perEpisode(r.traced, func(ep [world]episodeResult) float64 { return ep[0].CompressionRat }))

	// Allocation and GC around Run, from the timed episodes.
	timedMean := func(f func(e episodeResult) float64) float64 {
		return perEpisode(r.timed, func(ep [world]episodeResult) float64 { return rankMean(ep, f) })
	}
	set("parallel.allocs_per_step", "count", timedMean(func(e episodeResult) float64 { return float64(e.Mallocs) / float64(e.Steps) }))
	set("parallel.alloc_bytes_per_step", "bytes", timedMean(func(e episodeResult) float64 { return float64(e.AllocBytes) / float64(e.Steps) }))
	set("parallel.gc_pause_ms", "ms", timedMean(func(e episodeResult) float64 { return float64(e.GCPauseNs) / 1e6 / float64(e.Steps) }))
	set("parallel.train_loss", "nats", timedMean(func(e episodeResult) float64 { return e.Loss }))
	set("health.control_bytes_per_step", "bytes", timedMean(func(e episodeResult) float64 { return float64(e.ControlBytes) / float64(e.Steps) }))

	// Set-up split over every K=2 episode.
	all := append(append([][world]episodeResult(nil), r.timed...), r.traced...)
	set("cluster.join_ms", "ms", perEpisode(all, func(ep [world]episodeResult) float64 {
		return float64(max(ep[0].JoinDone, ep[1].JoinDone)-max(ep[0].JoinCall, ep[1].JoinCall)) / 1e6
	}))
	set("parallel.new_trainer_ms", "ms", perEpisode(all, func(ep [world]episodeResult) float64 {
		return rankMean(ep, func(e episodeResult) float64 { return float64(e.TrainerDone-e.JoinDone) / 1e6 })
	}))

	timedSPS := perEpisode(r.timed, sps)
	solo := make([]float64, len(r.solo))
	for i, e := range r.solo {
		solo[i] = float64(e.Samples) / (float64(e.RunNs) / 1e9)
	}
	set("parallel.scaling_efficiency", "ratio", timedSPS/(world*median(solo)))
	set("trace.samples_per_s_ratio", "ratio", perEpisode(r.traced, sps)/timedSPS)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile (NaN when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
