package health

import (
	"math"
	"sync"
	"time"
)

// Detector is a phi-or-deadline failure detector for one peer: the phi
// accrual detector of Hayashibara et al. (the one Akka and Cassandra
// run), backstopped by a hard silence deadline.
//
// Every heartbeat arrival feeds the observed inter-arrival distribution
// (mean and variance over a sliding window). Suspicion is then a
// continuous quantity: phi(t) = -log10 P(a heartbeat arrives later than
// t | history). As in Akka, the expected arrival is the mean gap plus
// an acceptable pause of a few mean gaps, and the standard deviation is
// floored at a fraction of the mean: a momentarily descheduled sender
// or reader on a loaded host is not a death. A peer whose heartbeats
// were metronomic is suspected after a short silence (about five
// intervals, well before the default eight-interval deadline); a peer
// on a jittery link earns slack proportional to its own jitter. Until
// enough samples exist — and as the final word regardless of what the
// statistics say — the hard deadline applies: silence of Timeout is
// death, full stop. The deadline is what the cluster's abort latency
// guarantee is stated against; phi only ever accelerates the verdict.
type Detector struct {
	mu sync.Mutex
	// timeout is the hard silence deadline.
	timeout time.Duration
	// threshold is the phi level at which the peer is suspected.
	threshold float64
	// last is the most recent heartbeat arrival (initialised to the
	// detector's birth so a peer that never speaks is still caught).
	last time.Time
	// window is a ring of recent inter-arrival gaps, in seconds.
	window  [detectorWindow]float64
	idx, n  int
	sum     float64
	sumSq   float64
	started bool
}

const (
	// detectorWindow bounds the inter-arrival history.
	detectorWindow = 64
	// detectorMinSamples gates the phi path: below this, deadline only.
	detectorMinSamples = 8
	// minStdDev floors the inter-arrival standard deviation so a
	// perfectly regular heartbeat stream (common on loopback) does not
	// make phi explode on microseconds of scheduler noise.
	minStdDev = 2e-3 // seconds
	// minStdDevOfMean floors the standard deviation relative to the
	// mean gap, for the same reason at any heartbeat interval.
	minStdDevOfMean = 0.1
	// pauseIntervals is the acceptable heartbeat pause, in mean gaps,
	// added to the expected arrival before suspicion accrues.
	pauseIntervals = 3
)

// NewDetector builds a detector with the given hard deadline and phi
// threshold. The clock starts at start: a peer that never sends a
// single heartbeat is suspected once start+timeout passes.
func NewDetector(timeout time.Duration, threshold float64, start time.Time) *Detector {
	return &Detector{timeout: timeout, threshold: threshold, last: start}
}

// Observe records a heartbeat arrival.
func (d *Detector) Observe(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		gap := t.Sub(d.last).Seconds()
		if gap >= 0 {
			old := d.window[d.idx]
			d.window[d.idx] = gap
			d.idx = (d.idx + 1) % detectorWindow
			if d.n < detectorWindow {
				d.n++
			} else {
				d.sum -= old
				d.sumSq -= old * old
			}
			d.sum += gap
			d.sumSq += gap * gap
		}
	}
	d.started = true
	if t.After(d.last) {
		d.last = t
	}
}

// LastSeen returns the most recent heartbeat arrival (the detector's
// birth time if none arrived yet).
func (d *Detector) LastSeen() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Suspect reports whether the peer should be declared dead at time now:
// either the hard deadline has passed, or the accrued phi crossed the
// threshold.
func (d *Detector) Suspect(now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	elapsed := now.Sub(d.last)
	if elapsed >= d.timeout {
		return true
	}
	return d.n >= detectorMinSamples && d.phiLocked(elapsed) >= d.threshold
}

// Phi returns the current suspicion level (0 when history is too
// short). Exposed for telemetry and tests.
func (d *Detector) Phi(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n < detectorMinSamples {
		return 0
	}
	return d.phiLocked(now.Sub(d.last))
}

// phiLocked computes phi for a silence of elapsed, using the logistic
// approximation to the normal tail that Akka's accrual detector uses.
func (d *Detector) phiLocked(elapsed time.Duration) float64 {
	mean := d.sum / float64(d.n)
	variance := d.sumSq/float64(d.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Max(math.Sqrt(variance), math.Max(minStdDev, minStdDevOfMean*mean))
	expected := mean * (1 + pauseIntervals)
	y := (elapsed.Seconds() - expected) / std
	x := y * (1.5976 + 0.070566*y*y)
	e := math.Exp(-x)
	if elapsed.Seconds() > expected {
		// -log10(e/(1+e)) = log10(1+1/e); once e underflows to zero the
		// closed form keeps phi finite and strictly increasing.
		if e == 0 {
			return x * math.Log10E
		}
		return -math.Log10(e / (1 + e))
	}
	return -math.Log10(1 - 1/(1+e))
}
