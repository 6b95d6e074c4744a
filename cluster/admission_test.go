package cluster

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/elastic"
	"repro/health"
)

// The admission rules of the two rendezvous rounds, pinned at the
// protocol level: which hellos a rejoin barrier drops, rejects or
// replaces while staying open, and which hello a fresh rendezvous
// refuses outright.

// barrierPolicy is the session policy of the barrier tests. It is not
// the floor, so a replacement's accept set can lack it.
const barrierPolicy = "qsgd4b512"

// barrierStep is the completed step count the survivors report; the
// replacement must receive a snapshot at exactly this step.
const barrierStep = 5

// rejoinResult is one participant's outcome of a rejoin round.
type rejoinResult struct {
	sess *Session
	snap *elastic.Snapshot
	err  error
}

// barrierWorld is a three-rank elastic session whose rank 2 has been
// declared dead: rank 0 holds the rejoin barrier open and rank 1 is the
// survivor that still has to arrive.
type barrierWorld struct {
	sessions []*Session
	addr     string
	coord    chan rejoinResult
}

// openRejoinBarrier forms the session, closes rank 2 and starts rank
// 0's side of the rejoin round.
func openRejoinBarrier(t *testing.T) *barrierWorld {
	t.Helper()
	const world = 3
	hb := health.Config{Interval: 50 * time.Millisecond, Timeout: 5 * time.Second}
	coord, err := NewCoordinator(Config{
		Addr: "127.0.0.1:0", World: world, Accept: []string{barrierPolicy},
		Timeout: 20 * time.Second, Health: hb,
		Elastic: elastic.Config{Enable: true, RejoinWindow: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &barrierWorld{sessions: make([]*Session, world), addr: coord.Addr(), coord: make(chan rejoinResult, 1)}
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 1; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w.sessions[rank], errs[rank] = Join(Config{
				Addr: w.addr, Rank: rank, World: world, Accept: []string{barrierPolicy},
				Timeout: 20 * time.Second, Health: hb,
			})
		}(rank)
	}
	w.sessions[0], errs[0] = coord.Join()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range w.sessions[:2] {
			s.Close()
		}
	})
	if got := w.sessions[0].PolicyName(); got != barrierPolicy {
		t.Fatalf("session negotiated %q, want %q", got, barrierPolicy)
	}
	w.sessions[2].Close()

	go func() {
		out, err := w.sessions[0].Rejoin(health.ErrPeerDead{Rank: 2}, elastic.LocalState{
			Step: barrierStep,
			Snapshot: func() (*elastic.Snapshot, error) {
				return &elastic.Snapshot{World: world, Policy: barrierPolicy, Step: barrierStep, Batch: -1}, nil
			},
		})
		res := rejoinResult{sess: w.sessions[0], err: err}
		if out != nil {
			res.snap = out.Installed
		}
		w.coord <- res
	}()
	return w
}

// dial connects to the barrier, retrying while rank 0 re-opens the
// rendezvous address.
func (w *barrierWorld) dial(t *testing.T) net.Conn {
	t.Helper()
	conn, err := dialCoordinator(w.addr, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// replace launches a replacement for rank 2 that advertises accept.
func (w *barrierWorld) replace(accept ...string) <-chan rejoinResult {
	done := make(chan rejoinResult, 1)
	go func() {
		sess, snap, err := Rejoin(Config{
			Addr: w.addr, Rank: 2, World: 3, Accept: accept, Timeout: 20 * time.Second,
		})
		done <- rejoinResult{sess: sess, snap: snap, err: err}
	}()
	return done
}

// finish brings the survivor to the barrier and asserts that the round
// completed for all three ranks with the replacement holding the
// donor's state.
func (w *barrierWorld) finish(t *testing.T, repl <-chan rejoinResult) {
	t.Helper()
	survivor := make(chan rejoinResult, 1)
	go func() {
		_, err := w.sessions[1].Rejoin(health.ErrPeerDead{Rank: 2}, elastic.LocalState{Step: barrierStep})
		survivor <- rejoinResult{sess: w.sessions[1], err: err}
	}()
	for _, ch := range []<-chan rejoinResult{w.coord, survivor, repl} {
		select {
		case res := <-ch:
			if res.err != nil {
				t.Fatalf("rejoin round failed: %v", res.err)
			}
			if res.sess != w.sessions[0] && res.sess != w.sessions[1] {
				t.Cleanup(func() { res.sess.Close() })
				if res.snap == nil || res.snap.Step != barrierStep {
					t.Fatalf("replacement installed %+v, want a snapshot at step %d", res.snap, barrierStep)
				}
			}
			if g := res.sess.Generation(); g != 1 {
				t.Fatalf("rank %d is at generation %d, want 1", res.sess.Rank(), g)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("rejoin round hung")
		}
	}
}

// TestRejoinBarrierDropsGarbageStray: garbage on the reopened
// rendezvous port is rejected and dropped; the barrier still completes.
func TestRejoinBarrierDropsGarbageStray(t *testing.T) {
	w := openRejoinBarrier(t)
	stray := w.dial(t)
	if _, err := stray.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := readWelcome(stray); err == nil {
		t.Fatal("a garbage hello must not receive a welcome")
	}
	w.finish(t, w.replace(barrierPolicy))
}

// TestRejoinBarrierRejectsFreshHello: a fresh (non-rejoin) hello is
// answered with a reject naming the reason, and the barrier stays open.
func TestRejoinBarrierRejectsFreshHello(t *testing.T) {
	w := openRejoinBarrier(t)
	conn := w.dial(t)
	if err := writeHello(conn, hello{Rank: 2, World: 3, MeshAddr: "127.0.0.1:1", Accept: []string{barrierPolicy}}); err != nil {
		t.Fatal(err)
	}
	if _, err := readWelcome(conn); err == nil || !strings.Contains(err.Error(), "fresh hello") {
		t.Fatalf("fresh hello to a rejoin barrier: got %v, want a reject naming it", err)
	}
	w.finish(t, w.replace(barrierPolicy))
}

// TestRejoinBarrierNewestClaimWins: when a slot is claimed twice, the
// older connection is dropped and the newest one joins the round.
func TestRejoinBarrierNewestClaimWins(t *testing.T) {
	w := openRejoinBarrier(t)
	stale := w.dial(t)
	if err := writeHello(stale, hello{
		Rank: 2, World: 3, MeshAddr: "127.0.0.1:1", Accept: []string{barrierPolicy}, Rejoin: true, Step: -1,
	}); err != nil {
		t.Fatal(err)
	}
	repl := w.replace(barrierPolicy)
	// The stale claim is closed without a word once the replacement's
	// hello takes its slot; only then may the survivor complete the
	// barrier.
	if n, err := stale.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("stale claim: read %d bytes, err %v; want it closed", n, err)
	}
	w.finish(t, repl)
}

// TestRejoinBarrierRejectsReplacementLackingPolicy: a replacement that
// does not accept the session policy could not decode a frame; it is
// rejected and the barrier stays open for a usable one.
func TestRejoinBarrierRejectsReplacementLackingPolicy(t *testing.T) {
	w := openRejoinBarrier(t)
	res := <-w.replace("1bit")
	if res.err == nil {
		res.sess.Close()
		t.Fatal("a replacement lacking the session policy joined")
	}
	if !strings.Contains(res.err.Error(), "does not accept the session policy") {
		t.Fatalf("rejection should name the policy, got: %v", res.err)
	}
	w.finish(t, w.replace(barrierPolicy))
}

// TestRendezvousRejectsRejoinHello: a fresh rendezvous fails on a
// rejoin hello — there is no running session to rejoin.
func TestRendezvousRejectsRejoinHello(t *testing.T) {
	coord, err := NewCoordinator(Config{Addr: "127.0.0.1:0", World: 2, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		s, err := coord.Join()
		if s != nil {
			s.Close()
		}
		joinErr <- err
	}()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, hello{Rank: 1, World: 2, MeshAddr: "127.0.0.1:1", Rejoin: true, Step: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-joinErr:
		if err == nil || !strings.Contains(err.Error(), "rejoin hello") {
			t.Fatalf("expected a rejoin-hello rejection, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung on a rejoin hello")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readWelcome(conn); err == nil || !strings.Contains(err.Error(), "rejoin hello") {
		t.Fatalf("the offender should read the reason, got: %v", err)
	}
}
