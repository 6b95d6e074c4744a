package main

import (
	"sort"
	"sync"
	"time"

	"repro/comm"
	"repro/nn"
	"repro/rng"
	"repro/tensor"
)

// Span kinds recorded from outside the program, at the calls into each
// layer. Step and exchange spans are derived from them afterwards.
const (
	kindForward = iota
	kindBackward
	kindSend
	kindRecv
)

var kindNames = [...]string{"nn.forward", "nn.backward", "comm.send", "comm.recv"}

// span is one call into a layer. Times are nanoseconds since the
// recorder's base (monotonic clock).
type span struct {
	kind       int
	layer      int // index into Network.Layers for nn spans, -1 otherwise
	start, end int64
	step       int // 0-based step of the episode
	bytes      int
}

// recorder collects the step-boundary stamps of one rank and, when
// traced, its layer spans. The trainer drives a rank's layers and its
// transport from one goroutine at a time, but the step goroutine and the
// caller that reads the results differ, so access is locked.
type recorder struct {
	base   time.Time
	traced bool

	mu     sync.Mutex
	stamps []int64 // start of each step: its first Forward(train=true)
	spans  []span
	runEnd int64 // when Run returned: the end of the last step
}

func newRecorder(traced bool, steps int) *recorder {
	r := &recorder{base: time.Now(), traced: traced, stamps: make([]int64, 0, steps)}
	if traced {
		// Preallocated so that recording does not allocate while the
		// allocation counters around Run are open.
		r.spans = make([]span, 0, 64*steps)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) stamp(t int64) {
	r.mu.Lock()
	r.stamps = append(r.stamps, t)
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	s.step = len(r.stamps) - 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrapBuild returns a build func whose network is the original one with
// its layers wrapped: the first layer stamps each step boundary, and in
// a traced run every layer records a span per Forward and Backward. The
// wrappers delegate Name and Params, so parameter names, order and
// values are unchanged.
func wrapBuild(build func(*rng.RNG) *nn.Network, rec *recorder) func(*rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		net := build(r)
		layers := make([]nn.Layer, len(net.Layers))
		copy(layers, net.Layers)
		for i, l := range layers {
			if i == 0 || rec.traced {
				layers[i] = &timedLayer{Layer: l, rec: rec, index: i}
			}
		}
		return nn.MustNetwork(layers...)
	}
}

type timedLayer struct {
	nn.Layer
	rec   *recorder
	index int
}

func (l *timedLayer) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train {
		return l.Layer.Forward(x, train)
	}
	t0 := l.rec.now()
	if l.index == 0 {
		l.rec.stamp(t0)
	}
	y := l.Layer.Forward(x, train)
	if l.rec.traced {
		l.rec.add(span{kind: kindForward, layer: l.index, start: t0, end: l.rec.now()})
	}
	return y
}

func (l *timedLayer) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !l.rec.traced {
		return l.Layer.Backward(dout)
	}
	t0 := l.rec.now()
	dx := l.Layer.Backward(dout)
	l.rec.add(span{kind: kindBackward, layer: l.index, start: t0, end: l.rec.now()})
	return dx
}

// tracedFabric times the data mesh's Send and Recv from outside. The
// embedded fabric forwards everything else the trainer looks for:
// Abort, Close and PeerTraffic.
type tracedFabric struct {
	*comm.RemoteFabric
	rec *recorder
}

func (f *tracedFabric) Send(from, to int, payload []byte) error {
	t0 := f.rec.now()
	err := f.RemoteFabric.Send(from, to, payload)
	if err == nil {
		f.rec.add(span{kind: kindSend, layer: -1, start: t0, end: f.rec.now(), bytes: len(payload)})
	}
	return err
}

func (f *tracedFabric) Recv(from, to int) ([]byte, error) {
	t0 := f.rec.now()
	b, err := f.RemoteFabric.Recv(from, to)
	if err == nil {
		f.rec.add(span{kind: kindRecv, layer: -1, start: t0, end: f.rec.now(), bytes: len(b)})
	}
	return b, err
}

// layerTotals are one rank's per-layer sums over the complete steps of a
// traced episode: every step but the last, whose end no stamp marks.
// Times are nanoseconds.
type layerTotals struct {
	Steps        int   `json:"steps"`
	StepNs       int64 `json:"step_ns"`
	ForwardNs    int64 `json:"forward_ns"`
	BackwardNs   int64 `json:"backward_ns"`
	DenseNs      int64 `json:"dense_ns"`
	ExchangeNs   int64 `json:"exchange_ns"`
	UnattribNs   int64 `json:"unattributed_ns"`
	SendNs       int64 `json:"send_ns"`
	RecvNs       int64 `json:"recv_ns"`
	SendBytes    int64 `json:"send_bytes"`
	SendMsgs     int64 `json:"send_msgs"`
	BadSteps     int   `json:"bad_steps"`     // steps whose spans do not reconcile
	EpisodeBytes int64 `json:"episode_bytes"` // all sends of the episode, last step included
}

// reduce splits each complete step into its forward and backward layer
// spans, the exchange (last Backward return to the next step's first
// Forward) and the unattributed gaps between layer spans, and checks
// that they tile the step: no two layer spans overlap, the first starts
// at the step's stamp, and every send and receive lies inside the
// exchange. dense reports whether a layer index is an nn.Dense.
func (r *recorder) reduce(dense func(layer int) bool) layerTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t layerTotals
	byStep := make([][]span, len(r.stamps))
	for _, s := range r.spans {
		if s.kind == kindSend {
			t.EpisodeBytes += int64(s.bytes)
		}
		if s.step >= 0 && s.step < len(byStep) {
			byStep[s.step] = append(byStep[s.step], s)
		}
	}
	for i := 0; i+1 < len(r.stamps); i++ {
		var nnSpans, commSpans []span
		for _, s := range byStep[i] {
			if s.kind == kindForward || s.kind == kindBackward {
				nnSpans = append(nnSpans, s)
			} else {
				commSpans = append(commSpans, s)
			}
		}
		sort.Slice(nnSpans, func(a, b int) bool { return nnSpans[a].start < nnSpans[b].start })
		start, next := r.stamps[i], r.stamps[i+1]
		ok := len(nnSpans) > 0 && nnSpans[0].start == start
		var fwd, bwd, denseNs, gaps int64
		prevEnd := start
		for _, s := range nnSpans {
			d := s.end - s.start
			if s.start < prevEnd {
				ok = false
			}
			gaps += s.start - prevEnd
			prevEnd = s.end
			if s.kind == kindForward {
				fwd += d
			} else {
				bwd += d
			}
			if dense(s.layer) {
				denseNs += d
			}
		}
		exchange := next - prevEnd
		var send, recv int64
		for _, s := range commSpans {
			if s.start < prevEnd || s.end > next {
				ok = false
			}
			if s.kind == kindSend {
				send += s.end - s.start
				t.SendBytes += int64(s.bytes)
				t.SendMsgs++
			} else {
				recv += s.end - s.start
			}
		}
		if send+recv > exchange || fwd+bwd+exchange+gaps != next-start {
			ok = false
		}
		if !ok {
			t.BadSteps++
		}
		t.Steps++
		t.StepNs += next - start
		t.ForwardNs += fwd
		t.BackwardNs += bwd
		t.DenseNs += denseNs
		t.ExchangeNs += exchange
		t.UnattribNs += gaps
		t.SendNs += send
		t.RecvNs += recv
	}
	return t
}

// spanRecord is the on-disk form of one span (JSON lines). Step and
// exchange spans are synthesised from the stamps: a step's layer spans
// are children of its step span, its sends and receives children of its
// exchange span.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer,omitempty"`
	Rank    int    `json:"rank"`
	Episode int    `json:"episode"`
	Step    int    `json:"step"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"`
}

// records converts the episode's spans for writing. layerName maps a
// layer index to its name.
func (r *recorder) records(rank, episode int, layerName func(int) string) []spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []spanRecord
	stepID := make([]int, len(r.stamps))
	exchID := make([]int, len(r.stamps))
	lastEnd := make([]int64, len(r.stamps))
	for _, s := range r.spans {
		if (s.kind == kindForward || s.kind == kindBackward) && s.step >= 0 && s.end > lastEnd[s.step] {
			lastEnd[s.step] = s.end
		}
	}
	for i, st := range r.stamps {
		end := r.runEnd
		if i+1 < len(r.stamps) {
			end = r.stamps[i+1]
		}
		stepID[i] = len(out) + 1
		out = append(out, spanRecord{ID: stepID[i], Parent: 0, Name: "parallel.step", Rank: rank, Episode: episode, Step: i, StartNs: st, EndNs: end})
		exchID[i] = len(out) + 1
		out = append(out, spanRecord{ID: exchID[i], Parent: stepID[i], Name: "parallel.exchange", Rank: rank, Episode: episode, Step: i, StartNs: lastEnd[i], EndNs: end})
	}
	for _, s := range r.spans {
		if s.step < 0 {
			continue
		}
		rec := spanRecord{ID: len(out) + 1, Name: kindNames[s.kind], Rank: rank, Episode: episode, Step: s.step, StartNs: s.start, EndNs: s.end, Bytes: s.bytes}
		if s.layer >= 0 {
			rec.Parent = stepID[s.step]
			rec.Layer = layerName(s.layer)
		} else {
			rec.Parent = exchID[s.step]
		}
		out = append(out, rec)
	}
	return out
}
