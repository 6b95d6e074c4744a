// Package cluster is the multi-process runtime of the reproduction: it
// turns N independent OS processes — one per worker, possibly on
// different machines — into the K-peer mesh the aggregation primitives
// in repro/comm run over. PR 1's self-describing framed wire format
// means TCP peers can decode gradients with no shared configuration;
// this package supplies the remaining pieces, rendezvous and
// capability exchange:
//
//   - Rank 0 (the coordinator) listens on a well-known address; every
//     other rank dials in and sends a versioned hello carrying its
//     rank, the world size it expects, the address of its own mesh
//     listener, and the precision policy strings it accepts
//     (quant.ParsePolicy grammar — bare codec names included).
//   - The coordinator validates the hellos (protocol version, rank
//     uniqueness, world agreement, parseable policy strings),
//     negotiates the session policy — the cheapest policy every peer
//     accepts by canonical spelling, with "32bit" as the floor (see
//     Negotiate) — and broadcasts the membership table.
//   - Every pair of ranks then establishes its duplex TCP link (the
//     higher rank dials the lower rank's mesh listener), and each
//     process wraps its local connection ends into a comm.RemoteFabric
//     — the same single-rank Transport that comm.TCPFabric builds K of
//     on loopback, so the trainer code cannot tell a simulated mesh
//     from a deployed one.
//
// The result is a Session: rank, world size, negotiated policy and a
// ready Transport. Join (or NewCoordinator then Coordinator.Join on
// rank 0) is the one way into a session; repro/lpsgd trains over it
// through lpsgd.WithClusterSession, and cmd/lpsgd-worker is the
// process you actually launch.
package cluster

import (
	"fmt"
	"net"
	"time"

	"repro/comm"
	"repro/elastic"
	"repro/health"
	"repro/obs"
	"repro/quant"
)

// Config describes one rank's view of a rendezvous.
type Config struct {
	// Addr is the coordinator's rendezvous address. Rank 0 listens on
	// it; every other rank dials it.
	Addr string
	// Rank is this process's rank in [0, World).
	Rank int
	// World is the total number of worker processes.
	World int
	// Accept lists the precision policy strings (quant.ParsePolicy
	// grammar; bare codec names are valid policies) this rank is
	// willing to train under. The Floor policy "32bit" is always
	// implicitly accepted. Empty means floor-only.
	Accept []string
	// Timeout bounds every handshake step (default 30s). It does not
	// apply to the training traffic that follows.
	Timeout time.Duration
	// Health tunes the session's health plane (heartbeat interval,
	// failure-detection timeout, phi threshold — see repro/health). The
	// coordinator's values govern the whole session: they are broadcast
	// in the welcome so every rank runs identical detection settings,
	// and they decide whether the per-peer control links are
	// established at all (Health.Disable). A worker's own Interval,
	// Timeout and Disable are therefore ignored; its Phi applies to its
	// local detectors.
	Health health.Config
	// Elastic tunes elastic sessions (see repro/elastic): whether a
	// peer-death verdict opens a rejoin barrier instead of staying
	// fatal, and how long that barrier holds for a replacement. Like
	// the health plane, the coordinator's values govern the whole
	// session — the welcome broadcasts the rejoin window, and a zero
	// window means elasticity is off. Requires the health plane: the
	// failure detector's verdict is the rejoin trigger.
	Elastic elastic.Config
	// Tracer, when set, records the session's control-plane events —
	// rendezvous and rejoin rounds — as obs.PhaseControl spans. Nil
	// (the default) is fully inert.
	Tracer *obs.Tracer
}

const defaultTimeout = 30 * time.Second

// handshakeGrace is the per-connection budget for the first message of
// an untrusted connection (a hello on the rendezvous port, a preamble
// on a mesh port). Real peers write it immediately after dialling; a
// silent stray — a port scanner, a health probe — must not hold the
// serialized accept loop for the whole rendezvous deadline and starve
// the real ranks waiting in the listen backlog. A variable so tests
// can shrink it.
var handshakeGrace = 5 * time.Second

// graceDeadline returns the nearer of the overall deadline and one
// handshake grace from now.
func graceDeadline(deadline time.Time) time.Time {
	if g := time.Now().Add(handshakeGrace); g.Before(deadline) {
		return g
	}
	return deadline
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

func (c Config) validate() error {
	if c.World <= 0 {
		return fmt.Errorf("cluster: world size must be positive, got %d", c.World)
	}
	if c.Rank < 0 || c.Rank >= c.World {
		return fmt.Errorf("cluster: rank %d outside world of %d", c.Rank, c.World)
	}
	if c.Addr == "" {
		return fmt.Errorf("cluster: rendezvous address is required")
	}
	for _, name := range c.Accept {
		if _, err := quant.ParsePolicy(name); err != nil {
			return fmt.Errorf("cluster: accepted policy: %w", err)
		}
	}
	if c.Rank == 0 && c.Elastic.Enable && c.Health.Resolved().Disable {
		return fmt.Errorf("cluster: elastic sessions need the health plane (the failure detector's verdict triggers the rejoin); enable heartbeats or disable elasticity")
	}
	return nil
}

// Session is one rank's membership in a running cluster: its identity,
// the precision policy the rendezvous negotiated, and the established
// mesh. When the coordinator enabled elastic sessions, the session is
// also the rank's elastic.Rejoiner: after a peer-death verdict, Rejoin
// re-runs the rendezvous (ProtocolVersion 4 rejoin hellos) against the
// same coordinator address, rebuilds the mesh and health plane in
// place, and brokers the state transfer that lets a replacement take
// the dead rank's slot.
type Session struct {
	// cfg is this rank's own configuration. Its Addr is the resolved
	// rendezvous address every rank can re-dial (rank 0 re-listens on
	// it for a rejoin round).
	cfg Config

	// The coordinator-governed state the latest welcome broadcast, and
	// the plane standing on it. Rejoin replaces it in place on the
	// rank's training goroutine; the accessors are not synchronised
	// against it.
	policy     *quant.Policy
	hb         health.Config
	el         elastic.Config
	fabric     *comm.RemoteFabric
	monitor    *health.Monitor
	peers      []string
	generation int
}

// Rank returns this process's rank.
func (s *Session) Rank() int { return s.cfg.Rank }

// World returns the number of worker processes.
func (s *Session) World() int { return s.cfg.World }

// PolicyName returns the negotiated policy's canonical spelling.
func (s *Session) PolicyName() string { return s.policy.Name() }

// Policy returns the negotiated precision policy.
func (s *Session) Policy() *quant.Policy { return s.policy }

// Fabric returns the established mesh transport. The session owns it;
// Close tears it down.
func (s *Session) Fabric() *comm.RemoteFabric { return s.fabric }

// Monitor returns the session's health monitor, or nil when the
// coordinator disabled the health plane. The rendezvous has already
// wired the monitor's verdict into Fabric().Abort, so a peer death
// unblocks every in-flight exchange with health.ErrPeerDead;
// additional handlers can be registered with Monitor().OnVerdict.
func (s *Session) Monitor() *health.Monitor { return s.monitor }

// Peers returns the mesh addresses of all ranks (index = rank).
func (s *Session) Peers() []string { return append([]string(nil), s.peers...) }

// Elastic returns the session's resolved elastic configuration — the
// coordinator-governed settings the welcome broadcast. Enable is false
// when the coordinator left elasticity off.
func (s *Session) Elastic() elastic.Config { return s.el }

// Generation counts the rejoin rounds this session has completed: 0
// until a death verdict is repaired, then one more per repair.
func (s *Session) Generation() int { return s.generation }

// Close tears the session down: the health plane first — its parting
// bye tells every peer this is a departure, not a death — then the
// mesh. Peers blocked in Recv observe the link loss as an error on
// their side.
func (s *Session) Close() error {
	if s.monitor != nil {
		s.monitor.Close()
	}
	return s.fabric.Close()
}

// Join performs the rendezvous for one rank and blocks until the whole
// mesh is established. Rank 0 listens on cfg.Addr and coordinates;
// every other rank dials it. For rank 0 with a ":0" address, use
// NewCoordinator first to learn the bound address before spawning the
// other ranks.
func Join(cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank == 0 {
		coord, err := NewCoordinator(cfg)
		if err != nil {
			return nil, err
		}
		return coord.Join()
	}
	return open(cfg, nil)
}

// Coordinator owns the rendezvous listener of rank 0 between "start
// listening" and "everyone joined" — the window a launcher needs to
// learn the bound address (Addr) and spawn the other ranks.
type Coordinator struct {
	cfg Config
	ln  net.Listener
}

// NewCoordinator validates the configuration (which must be rank 0) and
// starts listening on cfg.Addr immediately, so workers spawned after it
// returns can never hit connection-refused.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank != 0 {
		return nil, fmt.Errorf("cluster: the coordinator is rank 0, got rank %d", cfg.Rank)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: rendezvous listen: %w", err)
	}
	return &Coordinator{cfg: cfg, ln: ln}, nil
}

// Addr returns the bound rendezvous address — pass it to the other
// ranks when cfg.Addr used port 0.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close abandons a rendezvous before Join.
func (c *Coordinator) Close() error { return c.ln.Close() }

// Join runs the coordinator's side of the rendezvous: collect one
// hello per rank, negotiate the policy, broadcast the membership
// table, establish the mesh, and return rank 0's session. The
// rendezvous listener is closed when Join returns, successfully or
// not; training traffic flows over the mesh links only.
func (c *Coordinator) Join() (*Session, error) {
	defer c.ln.Close()
	cfg := c.cfg
	cfg.Addr = c.Addr()
	return open(cfg, c.ln)
}

// open runs a fresh rendezvous round for cfg.Rank — rank 0 coordinates
// on ln — and returns the session it forms.
func open(cfg Config, ln net.Listener) (*Session, error) {
	start := cfg.Tracer.Now()
	r := round{cfg: cfg, ln: ln, deadline: time.Now().Add(cfg.timeout())}
	if cfg.Rank == 0 {
		r.admit = admitFresh
		r.settle = cfg.freshWelcome
	}
	wel, conns, ctrl, err := r.run()
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg}
	if err := s.adopt(wel, conns, ctrl); err != nil {
		return nil, err
	}
	cfg.Tracer.Record(cfg.Rank, obs.PhaseControl, "rendezvous", -1, 0, start, cfg.Tracer.Now()-start)
	return s, nil
}

// admitFresh is a fresh round's admission check: the hello must not be
// a rejoin, and every policy string it advertises must parse.
func admitFresh(h hello) error {
	if h.Rejoin {
		return fmt.Errorf("cluster: rank %d sent a rejoin hello, but this rendezvous is forming a fresh session (launch without -rejoin, or point the worker at a session that lost a rank)", h.Rank)
	}
	for _, name := range h.Accept {
		if _, err := quant.ParsePolicy(name); err != nil {
			return fmt.Errorf("cluster: rank %d: %w", h.Rank, err)
		}
	}
	return nil
}

// freshWelcome negotiates the session policy over every rank's accepted
// set, the coordinator's own included, and stamps the session's
// health-plane and elastic parameters — the coordinator's word is what
// makes every rank run the same detection settings, establish (or
// skip) the control links in agreement, and hold (or not) a rejoin
// barrier after a death verdict.
func (c Config) freshWelcome(hellos []hello) (welcome, error) {
	accepts := make([][]string, len(hellos))
	accepts[0] = c.Accept
	for r := 1; r < len(hellos); r++ {
		accepts[r] = hellos[r].Accept
	}
	policyName, err := Negotiate(accepts...)
	if err != nil {
		return welcome{}, err
	}
	wel := welcome{Codec: policyName}
	if hb := c.Health.Resolved(); !hb.Disable {
		wel.HeartbeatInterval = hb.Interval
		wel.HeartbeatTimeout = hb.Timeout
	}
	if el := c.Elastic.Resolved(); el.Enable {
		wel.RejoinWindow = el.RejoinWindow
	}
	return wel, nil
}

// adopt stands the transport plane up over a finished round's links
// and takes on the welcome's membership and settings. It owns the
// links: every error path closes them. The coordinator governs the
// policy, the heartbeat and the rejoin window; only the phi threshold
// and the rejoin budget stay local. A zero interval means the
// coordinator turned the health plane off; a zero rejoin window,
// elasticity. The data links become the rank's Transport and — when
// the health plane is on — the heartbeat monitor runs over the control
// links with its verdict wired into the fabric's Abort, so a peer death
// interrupts every in-flight exchange with health.ErrPeerDead.
func (s *Session) adopt(wel welcome, conns, ctrl []net.Conn) error {
	policy, err := quant.ParsePolicy(wel.Codec)
	if err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return fmt.Errorf("cluster: negotiated policy: %w", err)
	}
	for _, set := range [][]net.Conn{conns, ctrl} {
		for _, conn := range set {
			if conn != nil {
				conn.SetDeadline(time.Time{})
			}
		}
	}
	fabric, err := comm.NewRemoteFabric(s.cfg.Rank, s.cfg.World, conns)
	if err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return err
	}
	hb := health.Config{
		Interval: wel.HeartbeatInterval,
		Timeout:  wel.HeartbeatTimeout,
		Phi:      s.cfg.Health.Phi,
		Disable:  wel.HeartbeatInterval <= 0,
	}.Resolved()
	var monitor *health.Monitor
	if ctrl != nil && s.cfg.World > 1 {
		if monitor, err = health.NewMonitor(s.cfg.Rank, s.cfg.World, ctrl, hb); err != nil {
			fabric.Close()
			closeConns(ctrl)
			return err
		}
		monitor.OnVerdict(func(verr error) { fabric.Abort(verr) })
		monitor.Start()
	}
	s.policy, s.hb, s.fabric, s.monitor = policy, hb, fabric, monitor
	s.el = elastic.Config{
		Enable:       wel.RejoinWindow > 0,
		RejoinWindow: wel.RejoinWindow,
		MaxRejoins:   s.cfg.Elastic.MaxRejoins,
	}.Resolved()
	s.peers, s.generation = wel.Addrs, wel.Generation
	return nil
}

// round is one rendezvous round from one rank's side: a fresh round
// forms a session, a rejoin round repairs one. Both run the same
// hello → welcome → mesh handshake over the same address.
type round struct {
	cfg      Config
	ln       net.Listener // rank 0's rendezvous listener
	deadline time.Time
	// rejoin marks a rejoin round. Its hellos carry the rejoin kind and
	// the sender's step. Rank 0 rejects a conflicting hello but keeps
	// the barrier open, and lets the newest connection take a slot
	// claimed twice; a fresh round fails on either.
	rejoin bool
	step   int64
	// admit is rank 0's round-specific check of a well-formed hello,
	// after the checks every round shares.
	admit func(hello) error
	// settle derives rank 0's welcome from the collected hellos (index
	// = rank); the round fills in the membership table.
	settle func(hellos []hello) (welcome, error)
}

// run performs this rank's side of the round and returns the welcome
// with this rank's share of the mesh: the data links, plus the control
// links when the welcome enables the health plane. On error every link
// is closed.
func (r round) run() (welcome, []net.Conn, []net.Conn, error) {
	var wel welcome
	var meshLn net.Listener
	var rendConns []net.Conn
	var err error
	if r.cfg.Rank == 0 {
		wel, meshLn, rendConns, err = r.coordinate()
	} else {
		wel, meshLn, rendConns, err = r.greet()
	}
	// The rendezvous connections stay open until the mesh is up.
	defer closeConns(rendConns)
	if meshLn != nil {
		defer meshLn.Close()
	}
	if err != nil {
		return wel, nil, nil, err
	}
	conns := make([]net.Conn, r.cfg.World)
	var ctrl []net.Conn
	if wel.HeartbeatInterval > 0 {
		ctrl = make([]net.Conn, r.cfg.World)
	}
	if err := establishMeshLinks(meshLn, wel.Addrs, r.cfg.Rank, r.cfg.World, r.deadline, conns, ctrl); err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return wel, nil, nil, err
	}
	return wel, conns, ctrl, nil
}

// coordinate is rank 0's side of the handshake: collect one admitted
// hello per other rank, open rank 0's mesh listener and broadcast the
// welcome. The listener and the rendezvous connections it returns,
// even on error, are the caller's to close.
func (r round) coordinate() (welcome, net.Listener, []net.Conn, error) {
	world := r.cfg.World
	hellos := make([]hello, world)
	rendConns := make([]net.Conn, world)
	if tl, ok := r.ln.(*net.TCPListener); ok {
		tl.SetDeadline(r.deadline)
	}
	for joined := 1; joined < world; {
		conn, err := r.ln.Accept()
		if err != nil {
			return welcome{}, nil, rendConns, fmt.Errorf("cluster: rendezvous accept (have %d of %d ranks): %w",
				joined, world, err)
		}
		conn.SetDeadline(graceDeadline(r.deadline))
		h, err := readHello(conn)
		conn.SetDeadline(r.deadline) // the welcome write gets the full window
		if err != nil {
			// Garbage on the port — a scanner, a liveness probe, a
			// disconnect — is not a cluster member failing; drop it and
			// keep accepting until the deadline.
			writeReject(conn, 0, err.Error())
			conn.Close()
			continue
		}
		err = checkHello(h, world)
		if err == nil {
			err = r.admit(h)
		}
		if err == nil && !r.rejoin && rendConns[h.Rank] != nil {
			err = fmt.Errorf("cluster: rank %d joined twice", h.Rank)
		}
		if err != nil {
			// The reject is written at the offender's own version so an
			// old build can display it.
			writeReject(conn, h.Version, err.Error())
			conn.Close()
			if r.rejoin {
				// The rejoin barrier exists to ride out chaos: a
				// wrong-world stray, an old build, a hello for an
				// impossible slot must not kill a repair the window
				// still has time to complete.
				continue
			}
			// In a fresh round it is one of the cluster's own ranks
			// misconfigured: a cluster that cannot agree on its own
			// membership must not train.
			return welcome{}, nil, rendConns, fmt.Errorf("cluster: rejected hello: %w", err)
		}
		if rendConns[h.Rank] != nil {
			// A rejoin slot claimed twice: the newest connection wins.
			// The stale one is a replacement (or survivor) that crashed
			// or lost its link after its hello — its supervisor
			// relaunched it, and holding the dead connection would just
			// burn the window.
			rendConns[h.Rank].Close()
			joined--
		}
		rendConns[h.Rank] = conn
		hellos[h.Rank] = h
		joined++
	}

	// The coordinator's mesh listener binds the interface the workers
	// actually reached it through (the local end of any rendezvous
	// connection), so the advertised address stays routable even when
	// the rendezvous listener is bound to a wildcard like ":7070".
	meshRef := r.ln.Addr()
	for _, conn := range rendConns {
		if conn != nil {
			meshRef = conn.LocalAddr()
			break
		}
	}
	meshLn, err := listenMesh(meshRef)
	if err != nil {
		return welcome{}, nil, rendConns, err
	}
	wel, err := r.settle(hellos)
	if err != nil {
		for _, conn := range rendConns {
			if conn != nil {
				writeReject(conn, 0, err.Error())
			}
		}
		return welcome{}, meshLn, rendConns, err
	}
	wel.Addrs = make([]string, world)
	wel.Addrs[0] = meshLn.Addr().String()
	for rank := 1; rank < world; rank++ {
		wel.Addrs[rank] = hellos[rank].MeshAddr
	}
	for rank := 1; rank < world; rank++ {
		if err := writeWelcome(rendConns[rank], wel); err != nil {
			return welcome{}, meshLn, rendConns, fmt.Errorf("cluster: welcome rank %d: %w", rank, err)
		}
	}
	return wel, meshLn, rendConns, nil
}

// checkHello validates what every round requires of a hello: this
// build's protocol version, the session's world, a worker rank inside
// it, and a mesh address.
func checkHello(h hello, world int) error {
	switch {
	case h.Version != ProtocolVersion:
		return fmt.Errorf("cluster: rank %d speaks rendezvous protocol version %d, this build speaks %d (the health plane and elastic rejoin need matching builds)",
			h.Rank, h.Version, ProtocolVersion)
	case h.World != world:
		return fmt.Errorf("cluster: rank %d expects a world of %d, the session has %d", h.Rank, h.World, world)
	case h.Rank <= 0 || h.Rank >= world:
		return fmt.Errorf("cluster: hello claims rank %d outside (0, %d)", h.Rank, world)
	case h.MeshAddr == "":
		return fmt.Errorf("cluster: rank %d advertises no mesh address", h.Rank)
	}
	return nil
}

// greet is a worker's side of the handshake: dial the coordinator,
// open this rank's mesh listener, send the hello and read and check
// the welcome. The listener and the rendezvous connection it returns,
// even on error, are the caller's to close.
func (r round) greet() (welcome, net.Listener, []net.Conn, error) {
	conn, err := dialCoordinator(r.cfg.Addr, r.deadline)
	if err != nil {
		return welcome{}, nil, nil, err
	}
	rendConns := []net.Conn{conn}
	conn.SetDeadline(r.deadline)

	// The mesh listener binds the interface this host reaches the
	// coordinator through, so the advertised address is routable for
	// every peer that can also reach the coordinator.
	meshLn, err := listenMesh(conn.LocalAddr())
	if err != nil {
		return welcome{}, nil, rendConns, err
	}
	err = writeHello(conn, hello{
		Rank:     r.cfg.Rank,
		World:    r.cfg.World,
		MeshAddr: meshLn.Addr().String(),
		Accept:   r.cfg.Accept,
		Rejoin:   r.rejoin,
		Step:     r.step,
	})
	if err != nil {
		return welcome{}, meshLn, rendConns, fmt.Errorf("cluster: send hello: %w", err)
	}
	wel, err := readWelcome(conn)
	switch {
	case err != nil:
	case len(wel.Addrs) != r.cfg.World:
		err = fmt.Errorf("cluster: membership table has %d ranks, want %d", len(wel.Addrs), r.cfg.World)
	case r.rejoin && len(wel.Steps) != r.cfg.World:
		err = fmt.Errorf("cluster: rejoin welcome carries no step table")
	case r.rejoin && wel.HeartbeatInterval <= 0:
		err = fmt.Errorf("cluster: rejoin welcome disables the health plane, which elastic sessions require")
	}
	return wel, meshLn, rendConns, err
}

// establishMeshLinks builds one rank's full share of the mesh: it
// dials every lower rank — the data link, plus the control link when
// ctrl is non-nil — and then accepts the links every higher rank dials
// in, filling conns (and ctrl) completely. The caller owns the slices
// and closes any partially established links on error.
func establishMeshLinks(ln net.Listener, addrs []string, rank, world int, deadline time.Time, conns, ctrl []net.Conn) error {
	for p := 0; p < rank; p++ {
		pc, err := dialMeshLink(addrs[p], rank, p, linkData, deadline)
		if err != nil {
			return err
		}
		conns[p] = pc
		if ctrl != nil {
			cc, err := dialMeshLink(addrs[p], rank, p, linkControl, deadline)
			if err != nil {
				return err
			}
			ctrl[p] = cc
		}
	}
	return acceptMeshLinks(ln, rank, world, deadline, conns, ctrl)
}

// dialMeshLink opens one mesh connection of the given kind to a lower
// rank and writes its preamble.
func dialMeshLink(addr string, from, to int, kind byte, deadline time.Time) (net.Conn, error) {
	pc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, fmt.Errorf("cluster: dial rank %d at %s: %w", to, addr, err)
	}
	pc.SetDeadline(deadline)
	if err := writeMeshPreamble(pc, from, to, kind); err != nil {
		pc.Close()
		return nil, fmt.Errorf("cluster: mesh preamble to rank %d: %w", to, err)
	}
	return pc, nil
}

// dialCoordinator dials the rendezvous address, retrying until the
// deadline: ranks are launched independently (shell jobs, init
// systems, schedulers), so workers routinely come up before the
// coordinator listens and a connection-refused must mean "not yet",
// not "never".
func dialCoordinator(addr string, deadline time.Time) (net.Conn, error) {
	const retryEvery = 100 * time.Millisecond
	var lastErr error
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("cluster: dial coordinator %s: %w", addr, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, remaining)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(min(retryEvery, time.Until(deadline)))
	}
}

// acceptMeshLinks accepts mesh connections on ln until every expected
// link has arrived — one data link per higher rank, plus one control
// link when ctrl is non-nil (the health plane is on) — and slots the
// connections by originating rank and preamble kind. Strays — bad
// preambles, duplicate or impossible claims, control links on a
// data-only session — are dropped, not fatal: an ephemeral mesh port
// is as exposed to scanners as the rendezvous port, and the deadline
// still bounds the wait for the real peers.
func acceptMeshLinks(ln net.Listener, local, world int, deadline time.Time, conns, ctrl []net.Conn) error {
	need := world - 1 - local
	if ctrl != nil {
		need *= 2
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for have := 0; have < need; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: rank %d mesh accept (have %d of %d links): %w",
				local, have, need, err)
		}
		conn.SetDeadline(graceDeadline(deadline))
		from, to, kind, err := readMeshPreamble(conn)
		if err != nil || to != local || from <= local || from >= world {
			conn.Close()
			continue
		}
		var slot []net.Conn
		switch kind {
		case linkData:
			slot = conns
		case linkControl:
			slot = ctrl
		}
		if slot == nil || slot[from] != nil {
			conn.Close()
			continue
		}
		conn.SetDeadline(deadline)
		slot[from] = conn
		have++
	}
	return nil
}

// listenMesh opens the per-rank mesh listener on an ephemeral port of
// the host in ref (the interface this rank is reachable through),
// falling back to loopback when ref is unspecified.
func listenMesh(ref net.Addr) (net.Listener, error) {
	host := "127.0.0.1"
	if ta, ok := ref.(*net.TCPAddr); ok && ta != nil && ta.IP != nil && !ta.IP.IsUnspecified() {
		host = ta.IP.String()
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("cluster: mesh listen on %s: %w", host, err)
	}
	return ln, nil
}

func closeConns(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
