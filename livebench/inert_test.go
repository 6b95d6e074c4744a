package main

import (
	"sync"
	"testing"
)

// episodePair runs one K=2 episode of w with both ranks in this process.
func episodePair(t *testing.T, w *workload, seed uint64, traced bool) [world]episodeResult {
	t.Helper()
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	train, test := w.data(w.stepsPerEpoch*w.batch, w.testN, seed)
	var out [world]episodeResult
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r] = runEpisode(w, train, test, seed, r, addr, traced, 0, func() {})
		}(r)
	}
	wg.Wait()
	for _, e := range out {
		if e.Err != "" {
			t.Fatalf("rank %d: %s", e.Rank, e.Err)
		}
	}
	return out
}

// TestWrappersInert checks that the traced run's layer and transport
// wrappers leave training untouched: the model digest and every rank's
// wire bytes equal those of the timed run, the wrapper's byte count
// equals the trainer's, and every step's spans reconcile.
func TestWrappersInert(t *testing.T) {
	for _, base := range workloads {
		w := *base
		w.epochs, w.stepsPerEpoch = 1, 4
		t.Run(w.name, func(t *testing.T) {
			timed := episodePair(t, &w, 3, false)
			traced := episodePair(t, &w, 3, true)
			for r := 0; r < world; r++ {
				a, b := timed[r], traced[r]
				if a.Digest != b.Digest || a.Digest != timed[0].Digest {
					t.Errorf("rank %d: traced digest %.12s, timed %.12s (rank 0 %.12s)", r, b.Digest, a.Digest, timed[0].Digest)
				}
				if a.WireBytes != b.WireBytes {
					t.Errorf("rank %d: traced wire bytes %d, timed %d", r, b.WireBytes, a.WireBytes)
				}
				if a.Steps != w.stepsPerEpisode() || b.Steps != a.Steps {
					t.Errorf("rank %d: steps timed %d traced %d, want %d", r, a.Steps, b.Steps, w.stepsPerEpisode())
				}
				if l := b.Layers; l.EpisodeBytes != b.WireBytes || l.BadSteps != 0 || l.Steps != b.Steps-1 {
					t.Errorf("rank %d: wrapper saw %d bytes (trainer %d), %d of %d steps unreconciled", r, l.EpisodeBytes, b.WireBytes, l.BadSteps, l.Steps)
				}
			}
			if sum := timed[0].WireBytes + timed[1].WireBytes; sum != timed[0].PredictedWire*int64(timed[0].Steps) {
				t.Errorf("wire bytes %d, predicted %d per step", sum, timed[0].PredictedWire)
			}
		})
	}
}

// TestReduceFlagsOverlap checks the reconciliation on hand-made spans:
// layer spans that tile a step pass, overlapping ones and a send outside
// the exchange fail.
func TestReduceFlagsOverlap(t *testing.T) {
	mk := func(spans []span) layerTotals {
		r := &recorder{stamps: []int64{0, 100}}
		for _, s := range spans {
			r.spans = append(r.spans, s)
		}
		return r.reduce(func(layer int) bool { return layer == 0 })
	}
	good := mk([]span{
		{kind: kindForward, layer: 0, start: 0, end: 10},
		{kind: kindForward, layer: 1, start: 12, end: 20},
		{kind: kindBackward, layer: 1, start: 25, end: 30},
		{kind: kindBackward, layer: 0, start: 30, end: 40},
		{kind: kindSend, layer: -1, start: 45, end: 50, bytes: 7},
		{kind: kindRecv, layer: -1, start: 50, end: 90},
	})
	if good.BadSteps != 0 || good.ForwardNs != 18 || good.BackwardNs != 15 || good.DenseNs != 20 ||
		good.UnattribNs != 7 || good.ExchangeNs != 60 || good.SendBytes != 7 || good.SendMsgs != 1 {
		t.Errorf("tiling step: %+v", good)
	}
	overlap := mk([]span{
		{kind: kindForward, layer: 0, start: 0, end: 10},
		{kind: kindForward, layer: 1, start: 8, end: 20},
	})
	early := mk([]span{
		{kind: kindForward, layer: 0, start: 0, end: 10},
		{kind: kindSend, layer: -1, start: 5, end: 12},
	})
	if overlap.BadSteps != 1 || early.BadSteps != 1 {
		t.Errorf("bad steps: overlap %d, send inside compute %d; want 1 and 1", overlap.BadSteps, early.BadSteps)
	}
}
