package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/data"
	"repro/nn"
	"repro/quant"
	"repro/rng"
)

// probeRounds is how many times each probe repeats; the median round is
// reported.
const probeRounds = 9

// probeResult holds one rank's after-Run probes of a traced episode.
// Times are nanoseconds per step.
type probeResult struct {
	EncodeNs    int64   `json:"encode_ns"`
	DecodeNs    int64   `json:"decode_ns"`
	EncodeBytes int64   `json:"encode_bytes"` // float32 input bytes one step encodes
	SGDNs       int64   `json:"sgd_ns"`
	GatherNs    int64   `json:"gather_ns"`
	ZeroShare   float64 `json:"zero_share"`
}

func medianRound(f func()) int64 {
	d := make([]int64, probeRounds)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = int64(time.Since(t0))
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return d[len(d)/2]
}

// stripes partitions n elements into k group-aligned ranges the way the
// reduce-and-broadcast primitive does: groups split evenly, the
// remainder spread over the first ranges.
func stripes(n, group, k int) [][2]int {
	groups := (n + group - 1) / group
	out := make([][2]int, k)
	prev := 0
	for i := range out {
		g := groups / k
		if i < groups%k {
			g++
		}
		end := min(prev+g*group, n)
		out[i] = [2]int{prev, end}
		prev = end
	}
	return out
}

// codecProbe runs the codec work one rank does in one reduce-and-broadcast
// exchange of the given gradients, as comm.ReduceBroadcast documents it:
// encode every stripe (the rank's own headerless, the others framed for
// their owners), re-encode the own stripe's aggregate framed; decode the
// own stripe, each peer's contribution to it, the own aggregate and
// every other owner's aggregate. The peers' messages are stood in for by
// frames of the same stripes encoded before timing.
func codecProbe(plan *quant.Plan, params []*nn.Param, rank int) (encNs, decNs, encBytes int64, err error) {
	type tensorWork struct {
		codec   quant.Codec
		shape   quant.Shape
		g       []float32
		st      [][2]int
		encs    []quant.Encoder
		agg     quant.Encoder
		frames  [][]byte // a framed encoding of each stripe
		ownWire []byte
	}
	work := make([]*tensorWork, len(params))
	for i, p := range params {
		c := plan.CodecFor(i)
		tw := &tensorWork{codec: c, shape: p.WireShape, g: p.Grad.Data}
		tw.st = stripes(len(tw.g), c.GroupSize(p.WireShape), world)
		for o, s := range tw.st {
			n := s[1] - s[0]
			var enc quant.Encoder
			var frame []byte
			if n > 0 {
				enc = c.NewEncoder(n, p.WireShape, uint64(1000*i+o))
				var buf bytes.Buffer
				if _, err := c.NewEncoder(n, p.WireShape, uint64(1000*i+o+500)).EncodeTo(&buf, tw.g[s[0]:s[1]]); err != nil {
					return 0, 0, 0, fmt.Errorf("probe frame %s: %w", p.Name, err)
				}
				frame = buf.Bytes()
				encBytes += 4 * int64(n)
				if o == rank {
					encBytes += 4 * int64(n)
				}
			}
			tw.encs = append(tw.encs, enc)
			tw.frames = append(tw.frames, frame)
		}
		if s := tw.st[rank]; s[1] > s[0] {
			tw.agg = c.NewEncoder(s[1]-s[0], p.WireShape, uint64(1000*i+999))
			tw.ownWire = append([]byte(nil), tw.encs[rank].Encode(tw.g[s[0]:s[1]])...)
		}
		work[i] = tw
	}
	maxStripe := 0
	for _, tw := range work {
		for _, s := range tw.st {
			maxStripe = max(maxStripe, s[1]-s[0])
		}
	}
	dst := make([]float32, maxStripe)
	var frame bytes.Buffer
	var probeErr error
	encNs = medianRound(func() {
		for _, tw := range work {
			for o, s := range tw.st {
				if s[1] == s[0] {
					continue
				}
				src := tw.g[s[0]:s[1]]
				if o == rank {
					tw.encs[o].Encode(src)
					continue
				}
				frame.Reset()
				if _, err := tw.encs[o].EncodeTo(&frame, src); err != nil {
					probeErr = err
				}
			}
			if tw.agg != nil {
				s := tw.st[rank]
				frame.Reset()
				if _, err := tw.agg.EncodeTo(&frame, tw.g[s[0]:s[1]]); err != nil {
					probeErr = err
				}
			}
		}
	})
	decNs = medianRound(func() {
		for _, tw := range work {
			own := tw.st[rank]
			if n := own[1] - own[0]; n > 0 {
				if err := tw.codec.Decode(tw.ownWire, n, tw.shape, dst[:n]); err != nil {
					probeErr = err
				}
				// The world-1 peers' contributions to the own stripe,
				// then the own aggregate: world framed decodes.
				for p := 0; p < world; p++ {
					if _, err := quant.DecodeFramed(tw.frames[rank], dst[:n]); err != nil {
						probeErr = err
					}
				}
			}
			for o, s := range tw.st {
				if o == rank || s[1] == s[0] {
					continue
				}
				if _, err := quant.DecodeFramed(tw.frames[o], dst[:s[1]-s[0]]); err != nil {
					probeErr = err
				}
			}
		}
	})
	return encNs, decNs, encBytes, probeErr
}

// sgdProbe times nn.SGD.Step on a fresh replica carrying the given
// gradients.
func sgdProbe(build func(*rng.RNG) *nn.Network, grads []*nn.Param, lr, momentum float32, seed uint64) int64 {
	net := build(rng.New(seed))
	for i, p := range net.Params() {
		copy(p.Grad.Data, grads[i].Grad.Data)
	}
	opt := nn.NewSGD(net.Params(), lr, momentum)
	return medianRound(opt.Step)
}

// gatherProbe times Dataset.Gather of one rank's shard of a batch.
func gatherProbe(train *data.Dataset, shard int, seed uint64) int64 {
	perm := rng.New(seed).Perm(train.Len())
	return medianRound(func() { train.Gather(perm[:shard]) })
}

// zeroShare is the share of the gradient elements that are exactly 0.
func zeroShare(params []*nn.Param) float64 {
	var zeros, total int
	for _, p := range params {
		for _, v := range p.Grad.Data {
			if v == 0 {
				zeros++
			}
		}
		total += len(p.Grad.Data)
	}
	return float64(zeros) / float64(max(total, 1))
}
