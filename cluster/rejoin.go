package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/comm"
	"repro/elastic"
	"repro/health"
	"repro/obs"
	"repro/quant"
)

// This file implements the elastic-rejoin half of the rendezvous
// protocol (ProtocolVersion 4). A rejoin round is the fresh
// rendezvous round (see round in cluster.go) run again with the rejoin
// flag set — same address, same hello/welcome/mesh handshake, same
// stray handling — minus negotiation, plus a step table:
//
//  1. A peer-death verdict reaches every survivor (repro/health). Each
//     survivor's trainer quiesces at the step barrier its abort unwound
//     to and calls Session.Rejoin.
//  2. Rank 0 re-opens the original rendezvous address and collects one
//     rejoin hello per slot: survivors announce their completed step
//     counts, and a replacement process (cluster.Rejoin, launched by a
//     supervisor as `lpsgd-worker -rejoin`) claims the dead rank's slot
//     with step -1.
//  3. The welcome broadcasts the next session generation and the full
//     step table. Everyone derives the same resume point (the maximum
//     completed step — a synchronous exchange cannot complete anywhere
//     unless every rank contributed, so survivors are at most one step
//     apart and the maximum is a state an uninterrupted run reaches),
//     the same donor (the lowest rank holding it) and the same
//     catch-up set (every rank behind it).
//  4. The mesh and control links are re-established by the same
//     handshake, and the donor streams the elastic.Snapshot
//     to every catch-up rank over the new data links.
//
// If anything fails — the window expires, a second rank dies, the
// coordinator itself was the casualty — Rejoin returns an error and
// the caller surfaces the original verdict: elasticity degrades to
// PR 4's coordinated abort, never to a hang.

// ErrNotElastic is returned by Session.Rejoin when the coordinator did
// not enable elastic sessions for this cluster.
var ErrNotElastic = errors.New("cluster: session is not elastic (the coordinator did not enable rejoin)")

// Rejoin repairs the session after a peer-death verdict: survivors
// re-rendezvous at the original coordinator address, a replacement is
// admitted into the dead rank's slot, the mesh and health plane are
// rebuilt in place, and training state flows from the donor to every
// rank behind the resume point. It implements elastic.Rejoiner and is
// called from the rank's training goroutine; on success the session's
// Fabric, Monitor and Generation are replaced. On failure the old
// plane stays torn down and the caller should surface the original
// verdict.
func (s *Session) Rejoin(verdict error, local elastic.LocalState) (*elastic.Outcome, error) {
	if !s.el.Enable {
		return nil, ErrNotElastic
	}
	var dead health.ErrPeerDead
	if !errors.As(verdict, &dead) {
		return nil, fmt.Errorf("cluster: rejoin needs a health.ErrPeerDead verdict, got: %v", verdict)
	}
	if dead.Rank == 0 {
		return nil, fmt.Errorf("cluster: rank 0 (the coordinator) died; a session cannot outlive its rejoin listener")
	}
	if dead.Rank < 0 || dead.Rank >= s.cfg.World || dead.Rank == s.cfg.Rank {
		return nil, fmt.Errorf("cluster: verdict names rank %d, which rank %d of %d cannot repair", dead.Rank, s.cfg.Rank, s.cfg.World)
	}
	// Quiesce the old plane. Close waits for the in-flight abort
	// broadcast and says its byes even though a verdict is held — a
	// survivor's sockets vanishing unannounced would read as a second
	// death on any peer that has not reached its own verdict yet (see
	// health.Monitor.Close). The fabric was already aborted by the
	// verdict handler, so its Close is an idempotent backstop.
	if s.monitor != nil {
		s.monitor.Close()
	}
	s.fabric.Close()

	start := s.cfg.Tracer.Now()
	r := round{cfg: s.cfg, deadline: time.Now().Add(s.el.RejoinWindow), rejoin: true, step: local.Step}
	if s.cfg.Rank == 0 {
		ln, err := net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: reopen rendezvous %s: %w", s.cfg.Addr, err)
		}
		defer ln.Close()
		r.ln = ln
		r.admit = func(h hello) error { return s.checkRejoinHello(h, dead.Rank) }
		r.settle = func(hellos []hello) (welcome, error) {
			steps := make([]int64, len(hellos))
			steps[0] = local.Step
			for rank := 1; rank < len(hellos); rank++ {
				steps[rank] = hellos[rank].Step
			}
			return welcome{
				Codec:             s.policy.Name(),
				HeartbeatInterval: s.hb.Interval,
				HeartbeatTimeout:  s.hb.Timeout,
				Generation:        s.generation + 1,
				RejoinWindow:      s.el.RejoinWindow,
				Steps:             steps,
			}, nil
		}
	}
	out, err := s.rejoinRound(r, local)
	if err != nil {
		return nil, err
	}
	s.cfg.Tracer.Record(s.cfg.Rank, obs.PhaseControl, "rejoin", dead.Rank, 0, start, s.cfg.Tracer.Now()-start)
	return out, nil
}

// checkRejoinHello is a rejoin round's admission check: the hello must
// be a rejoin, a replacement for the dead rank must accept the session
// policy, and a survivor must hold training state.
func (s *Session) checkRejoinHello(h hello, deadRank int) error {
	if !h.Rejoin {
		return fmt.Errorf("cluster: rank %d sent a fresh hello to a rejoin barrier; a running session lost rank %d and only takes rejoins", h.Rank, deadRank)
	}
	if h.Rank == deadRank {
		// The replacement never negotiated: it must accept the policy
		// the session already trains under, or it could not decode a
		// single frame.
		if err := acceptsPolicy(h.Accept, s.policy.Name()); err != nil {
			return fmt.Errorf("cluster: replacement for rank %d: %w", deadRank, err)
		}
	} else if h.Step < 0 {
		return fmt.Errorf("cluster: surviving rank %d claims no training state (step %d)", h.Rank, h.Step)
	}
	return nil
}

// acceptsPolicy reports whether an advertised accept set contains the
// session policy by canonical spelling. The Floor is always implicitly
// accepted, exactly as during negotiation.
func acceptsPolicy(accepts []string, policyName string) error {
	if policyName == Floor {
		return nil
	}
	for _, name := range accepts {
		p, err := quant.ParsePolicy(name)
		if err != nil {
			return err
		}
		if p.Name() == policyName {
			return nil
		}
	}
	return fmt.Errorf("does not accept the session policy %q", policyName)
}

// rejoinRound runs this rank's side of a rejoin round, stands the new
// transport plane up over its links and runs the state transfer,
// composing the outcome every path (coordinator, survivor,
// replacement) returns.
func (s *Session) rejoinRound(r round, local elastic.LocalState) (*elastic.Outcome, error) {
	wel, conns, ctrl, err := r.run()
	if err != nil {
		return nil, err
	}
	if err := s.adopt(wel, conns, ctrl); err != nil {
		return nil, err
	}
	installed, err := transferState(s.fabric, s.cfg.Rank, wel.Steps, local)
	if err != nil {
		s.Close()
		return nil, err
	}
	resume, _ := resumePoint(wel.Steps)
	return &elastic.Outcome{
		Fabric:     s.fabric,
		Monitor:    s.monitor,
		Generation: s.generation,
		ResumeStep: resume,
		Installed:  installed,
	}, nil
}

// resumePoint derives the agreed resume step and the donor from a step
// table: the maximum completed step, donated by the lowest rank that
// holds it. Every rank computes this over the same broadcast table, so
// all agree without another message.
func resumePoint(steps []int64) (resume int64, donor int) {
	donor = -1
	for r, st := range steps {
		if donor < 0 || st > resume {
			resume, donor = st, r
		}
	}
	return resume, donor
}

// transferState moves the donor's snapshot to every rank behind the
// resume point over the new data mesh, and installs a received one
// locally. It returns the snapshot this rank installed (nil for the
// donor and for in-sync survivors).
func transferState(fabric *comm.RemoteFabric, rank int, steps []int64, local elastic.LocalState) (*elastic.Snapshot, error) {
	resume, donor := resumePoint(steps)
	if donor < 0 {
		return nil, fmt.Errorf("cluster: empty step table")
	}
	if rank == donor {
		if local.Snapshot == nil {
			return nil, fmt.Errorf("cluster: rank %d elected donor but supplies no snapshot", rank)
		}
		snap, err := local.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: donor snapshot: %w", err)
		}
		if snap.Step != resume {
			return nil, fmt.Errorf("cluster: donor snapshot at step %d, resume point is %d", snap.Step, resume)
		}
		var buf bytes.Buffer
		if err := snap.EncodeTo(&buf); err != nil {
			return nil, err
		}
		for r, st := range steps {
			if r == rank || st >= resume {
				continue
			}
			if err := fabric.Send(rank, r, buf.Bytes()); err != nil {
				return nil, fmt.Errorf("cluster: stream snapshot to rank %d: %w", r, err)
			}
		}
		return nil, nil
	}
	if steps[rank] >= resume {
		return nil, nil
	}
	wire, err := fabric.Recv(donor, rank)
	if err != nil {
		return nil, fmt.Errorf("cluster: receive snapshot from donor rank %d: %w", donor, err)
	}
	snap, err := elastic.ReadSnapshot(bytes.NewReader(wire))
	if err != nil {
		return nil, err
	}
	if snap.Step != resume {
		return nil, fmt.Errorf("cluster: snapshot at step %d, resume point is %d", snap.Step, resume)
	}
	if local.Install != nil {
		if err := local.Install(snap); err != nil {
			return nil, fmt.Errorf("cluster: install snapshot: %w", err)
		}
	}
	return snap, nil
}

// Rejoin joins this process into a running elastic session as the
// replacement for a dead rank: it dials the session's rendezvous
// address (retrying while the survivors converge on the rejoin
// barrier), claims cfg.Rank's slot with a step -1 rejoin hello,
// re-establishes the mesh, and receives the session snapshot from the
// donor. The returned session is a full member — future deaths of
// other ranks are repairable through it — and the snapshot is the
// training state to restore before resuming (parallel.Trainer.Restore).
// cfg.Timeout bounds the whole attempt; it should comfortably exceed
// the cluster's failure-detection timeout, since the barrier only opens
// once the survivors reach their verdict.
func Rejoin(cfg Config) (*Session, *elastic.Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Rank == 0 {
		return nil, nil, fmt.Errorf("cluster: rank 0 is the coordinator and cannot be replaced")
	}
	start := cfg.Tracer.Now()
	s := &Session{cfg: cfg}
	r := round{cfg: cfg, deadline: time.Now().Add(cfg.timeout()), rejoin: true, step: -1}
	out, err := s.rejoinRound(r, elastic.LocalState{Step: -1})
	if err != nil {
		return nil, nil, err
	}
	if out.Installed == nil {
		s.Close()
		return nil, nil, fmt.Errorf("cluster: rejoin completed without a state snapshot")
	}
	cfg.Tracer.Record(cfg.Rank, obs.PhaseControl, "rejoin", -1, 0, start, cfg.Tracer.Now()-start)
	return s, out.Installed, nil
}
