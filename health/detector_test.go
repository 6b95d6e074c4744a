package health

import (
	"testing"
	"time"
)

// feed observes n metronomic arrivals spaced gap apart, returning the
// time of the last one.
func feed(d *Detector, start time.Time, gap time.Duration, n int) time.Time {
	t := start
	for i := 0; i < n; i++ {
		t = t.Add(gap)
		d.Observe(t)
	}
	return t
}

func TestDetectorHardDeadline(t *testing.T) {
	start := time.Unix(1000, 0)
	d := NewDetector(2*time.Second, DefaultPhi, start)
	// A peer that never speaks is suspected once the deadline passes,
	// and not a moment before.
	if d.Suspect(start.Add(1900 * time.Millisecond)) {
		t.Fatal("suspected before the deadline with no history")
	}
	if !d.Suspect(start.Add(2 * time.Second)) {
		t.Fatal("not suspected at the hard deadline")
	}
}

func TestDetectorRegularHeartbeatsAreHealthy(t *testing.T) {
	start := time.Unix(1000, 0)
	d := NewDetector(4*time.Second, DefaultPhi, start)
	last := feed(d, start, 100*time.Millisecond, 50)
	// Just after an on-time heartbeat, phi is negligible.
	if d.Suspect(last.Add(50 * time.Millisecond)) {
		t.Fatal("healthy metronomic peer suspected")
	}
	if phi := d.Phi(last.Add(100 * time.Millisecond)); phi > 1 {
		t.Fatalf("phi %v after one on-time interval, want ~0", phi)
	}
}

func TestDetectorPhiAcceleratesPastDeadline(t *testing.T) {
	start := time.Unix(1000, 0)
	const gap = 100 * time.Millisecond
	d := NewDetector(10*time.Second, DefaultPhi, start)
	last := feed(d, start, gap, 50)
	// After a metronomic history, a silence of 10 intervals crosses the
	// phi threshold long before the 10 s hard deadline would fire.
	if !d.Suspect(last.Add(10 * gap)) {
		t.Fatal("phi did not accelerate the verdict for a metronomic peer")
	}
	// And phi is monotone in the silence.
	if d.Phi(last.Add(4*gap)) >= d.Phi(last.Add(8*gap)) {
		t.Fatal("phi is not increasing with silence")
	}
}

func TestDetectorToleratesSchedulingPause(t *testing.T) {
	start := time.Unix(1000, 0)
	const gap = 100 * time.Millisecond
	d := NewDetector(time.Hour, DefaultPhi, start)
	last := feed(d, start, gap, 50)
	// A metronomic peer whose next ping is held up by a few intervals —
	// a descheduled sender or reader on a loaded host — is not dead.
	if d.Suspect(last.Add(3 * gap)) {
		t.Fatal("metronomic peer suspected after a three-interval pause")
	}
	if !d.Suspect(last.Add(6 * gap)) {
		t.Fatal("metronomic peer not suspected after a six-interval silence")
	}
}

func TestDetectorJitterEarnsSlack(t *testing.T) {
	start := time.Unix(1000, 0)
	steady := NewDetector(time.Hour, DefaultPhi, start)
	jittery := NewDetector(time.Hour, DefaultPhi, start)
	lastSteady := feed(steady, start, 100*time.Millisecond, 50)
	// Same mean interval, alternating 20/180 ms gaps.
	tj := start
	for i := 0; i < 25; i++ {
		tj = tj.Add(20 * time.Millisecond)
		jittery.Observe(tj)
		tj = tj.Add(180 * time.Millisecond)
		jittery.Observe(tj)
	}
	silence := 500 * time.Millisecond
	if steady.Phi(lastSteady.Add(silence)) <= jittery.Phi(tj.Add(silence)) {
		t.Fatal("a jittery peer must accrue suspicion more slowly than a metronomic one")
	}
}

func TestDetectorFewSamplesFallBackToDeadline(t *testing.T) {
	start := time.Unix(1000, 0)
	d := NewDetector(5*time.Second, DefaultPhi, start)
	last := feed(d, start, 10*time.Millisecond, detectorMinSamples-2)
	// Far too few samples for statistics: a long silence below the hard
	// deadline is tolerated...
	if d.Suspect(last.Add(4 * time.Second)) {
		t.Fatal("phi path used below the sample floor")
	}
	// ...and the deadline still catches it.
	if !d.Suspect(last.Add(5 * time.Second)) {
		t.Fatal("hard deadline lost")
	}
}

func TestResolvedDefaults(t *testing.T) {
	got := Config{}.Resolved()
	if got.Interval != DefaultInterval || got.Timeout != defaultTimeoutIntervals*DefaultInterval || got.Phi != DefaultPhi {
		t.Fatalf("zero config resolved to %+v", got)
	}
	custom := Config{Interval: time.Second}.Resolved()
	if custom.Timeout != 8*time.Second {
		t.Fatalf("timeout default must derive from the interval, got %v", custom.Timeout)
	}
	if r := (Config{Disable: true, Interval: time.Second}).Resolved(); !r.Disable || r.Interval != 0 {
		t.Fatalf("disabled config must stay inert, got %+v", r)
	}
}
