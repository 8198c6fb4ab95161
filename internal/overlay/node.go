// Package overlay implements the live EGOIST node runtime (Sect. 3): a
// goroutine-driven node that joins via bootstrap neighbors, floods and
// collects link-state announcements, actively measures candidate links with
// echo probes, re-evaluates its wiring every epoch T with a pluggable
// neighbor-selection policy, heartbeats its donated backbone links, and
// supports immediate or delayed re-wiring on link failure.
//
// The same runtime runs over the in-memory bus (tests, demos) and over UDP
// (cmd/egoistd).
package overlay

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"egoist/internal/cheat"
	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/linkstate"
)

// RewireMode selects when a dropped link is replaced (Sect. 3.3).
type RewireMode int

const (
	// Delayed re-wiring repairs dropped links only at the next wiring
	// epoch. It is the paper's default.
	Delayed RewireMode = iota
	// Immediate re-wiring repairs a dropped backbone link as soon as the
	// heartbeat monitor declares it dead.
	Immediate
)

// Config parameterizes a live overlay node.
type Config struct {
	// ID is this node's identifier in [0, N).
	ID int
	// N is the overlay size (the id space; not all ids need be alive).
	N int
	// K is the out-degree budget.
	K int
	// Kind is the cost algebra (live nodes measure delay; Additive).
	Kind core.CostKind
	// Policy selects neighbors each epoch. Defaults to BRPolicy.
	Policy core.Policy
	// Transport carries protocol datagrams.
	Transport linkstate.Transport
	// Epoch is the wiring epoch T. Defaults to 60s (paper value); tests
	// use milliseconds.
	Epoch time.Duration
	// Announce is T_announce, the LSA re-broadcast period (< Epoch).
	// Defaults to Epoch/3.
	Announce time.Duration
	// Heartbeat is the donated-link monitoring period. Defaults to
	// Announce/2.
	Heartbeat time.Duration
	// Epsilon is the BR(ε) re-wiring threshold (Sect. 4.3); 0 re-wires on
	// any strict improvement.
	Epsilon float64
	// Mode selects immediate or delayed failure repair.
	Mode RewireMode
	// Bootstrap are the initial neighbors obtained from the bootstrap
	// node; the newcomer connects to them before its first epoch.
	Bootstrap []int
	// DelayOracle, when non-nil, adds a synthetic one-way delay (ms) to
	// echo measurements, letting loopback deployments reproduce wide-area
	// geometry. The probe's real RTT is still included.
	DelayOracle func(from, to int) float64
	// Book, when non-nil, enables PEX gossip membership (the bootstrap
	// protocol documented in linkstate/pex.go): the node learns sender
	// addresses from inbound control messages, answers Join requests
	// with its peer list, and pushes a bounded sample of the book to a
	// few random peers every announce period. The caller must register
	// the node's own address and its bootstrap contacts in the book
	// before Start. Nil keeps the static pre-registered transport.
	Book linkstate.AddressBook
	// SeqBase offsets this node's LSA sequence numbers. A restarting
	// daemon must pass a value exceeding every sequence of its previous
	// life (cmd/egoistd uses the wall clock), or peers still holding the
	// old LSAs discard the new ones as stale until they age out.
	SeqBase uint64
	// Cheat, when non-nil, rewrites this node's announced link costs —
	// the free-rider model of Sect. 4.5.
	Cheat *cheat.Model
	// Seed feeds the node's private RNG.
	Seed int64
	// OnProbe, when non-nil, receives every accepted echo measurement:
	// the probed peer and the one-way delay sample (ms) folded into the
	// estimator. Called on the receive goroutine without the node lock;
	// keep it cheap (the daemon points it at a metrics histogram).
	OnProbe func(peer int, oneWayMS float64)
	// Logf, when non-nil, receives diagnostic output.
	Logf func(format string, args ...interface{})
}

func (c *Config) applyDefaults() error {
	if c.N < 2 || c.ID < 0 || c.ID >= c.N {
		return fmt.Errorf("overlay: bad id/N %d/%d", c.ID, c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("overlay: bad k %d", c.K)
	}
	if c.Transport == nil {
		return fmt.Errorf("overlay: transport required")
	}
	if c.Policy == nil {
		c.Policy = core.BRPolicy{}
	}
	if c.Epoch <= 0 {
		c.Epoch = 60 * time.Second
	}
	if c.Announce <= 0 {
		c.Announce = c.Epoch / 3
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.Announce / 2
	}
	return nil
}

// Node is a running overlay participant.
type Node struct {
	cfg Config
	db  *linkstate.DB
	rng *rand.Rand

	mu        sync.Mutex
	neighbors []int
	seq       uint64
	est       map[int]*ewma     // smoothed one-way delay estimates, ms
	pending   map[uint64]int    // echo token -> peer
	lastAck   map[int]time.Time // heartbeat acks from donated links
	lastReply map[int]time.Time // last echo reply per peer, for staleness
	joined    map[int]bool      // peers learned from bootstrap or PEX
	donated   []int
	rewires   int // cumulative established links
	epochs    int
	decision  time.Duration // cumulative epoch decision time

	fwd forwarding // data plane

	// view is the shortest-path forest runEpoch prices BR proposals on,
	// reset on the masked link-state view every epoch, and sc its solver
	// scratch. Only the timer loop runs epochs, so they need no lock.
	view graph.SPForest
	sc   core.Scratch

	stop chan struct{}
	done sync.WaitGroup
}

// ewma estimates a peer's one-way delay from echo probes. Queueing and
// scheduler noise on a probe RTT is strictly additive — the propagation
// delay is the *floor* of the samples, not their mean — so the estimate
// is the minimum over a sliding window of recent probes (the standard
// ping-based estimator). A plain mean inflates every arc by the host's
// load and, worse, unevenly: co-deployed fleets measured ~50% relative
// error per arc, which both distorts neighbor selection and mis-prices
// announced links. The window keeps the filter adaptive: a genuinely
// slower path ages in after estWindow samples.
type ewma struct {
	v    float64 // current estimate: min over the ring
	ring [estWindow]float64
	n    int // samples folded (ring is full once n >= estWindow)
}

// estWindow is the sample window of the min-filter: at a probe every
// Epoch/4, eight samples span two epochs — the same horizon as the
// probe-staleness cutoff.
const estWindow = 8

func (e *ewma) fold(x float64) {
	e.ring[e.n%estWindow] = x
	e.n++
	lim := e.n
	if lim > estWindow {
		lim = estWindow
	}
	min := e.ring[0]
	for i := 1; i < lim; i++ {
		if e.ring[i] < min {
			min = e.ring[i]
		}
	}
	e.v = min
}

// Start launches the node's protocol loops.
func Start(cfg Config) (*Node, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		db:        linkstate.NewDB(cfg.N, 5*cfg.Epoch, nil),
		rng:       rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.ID)<<17)),
		seq:       cfg.SeqBase,
		est:       make(map[int]*ewma),
		pending:   make(map[uint64]int),
		lastAck:   make(map[int]time.Time),
		lastReply: make(map[int]time.Time),
		joined:    make(map[int]bool),
		stop:      make(chan struct{}),
	}
	for _, b := range cfg.Bootstrap {
		if b != cfg.ID && b >= 0 && b < cfg.N && len(n.neighbors) < cfg.K {
			n.neighbors = append(n.neighbors, b)
		}
	}
	sort.Ints(n.neighbors)
	n.mu.Lock()
	n.announceLocked()
	n.mu.Unlock()
	// Query the bootstrap contacts for the membership list (Sect. 3.1).
	for _, b := range cfg.Bootstrap {
		if b != cfg.ID && b >= 0 && b < cfg.N {
			n.send(b, linkstate.MarshalJoin(uint16(cfg.ID)))
		}
	}

	n.done.Add(2)
	go n.recvLoop()
	go n.timerLoop()
	return n, nil
}

// Stop terminates the node's loops and closes its transport.
func (n *Node) Stop() {
	close(n.stop)
	n.cfg.Transport.Close()
	n.done.Wait()
}

// ID returns the node's identifier.
func (n *Node) ID() int { return n.cfg.ID }

// Neighbors returns the current neighbor set.
func (n *Node) Neighbors() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]int(nil), n.neighbors...)
}

// Graph returns the node's current view of the announced overlay.
func (n *Node) Graph() *graph.Digraph { return n.db.Graph() }

// KnownNodes returns the origins present in the link-state database.
func (n *Node) KnownNodes() []int { return n.db.Origins() }

// Rewires returns the cumulative count of links established after bootstrap.
func (n *Node) Rewires() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rewires
}

// Epochs returns how many wiring epochs have run.
func (n *Node) Epochs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epochs
}

// DecisionTime returns the cumulative time the wiring epochs spent
// deciding: from building the link-state view to the adoption result.
func (n *Node) DecisionTime() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.decision
}

// Seq returns the sequence number of the node's latest LSA. It only
// grows (from SeqBase), so a fleet monitor can spot a wedged announcer
// by a flat series.
func (n *Node) Seq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seq
}

// JoinedPeers returns how many distinct peers this node has learned
// through bootstrap membership replies or PEX gossip — the node's view
// of fleet membership, 0 under a static roster.
func (n *Node) JoinedPeers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.joined)
}

// Estimate returns the node's smoothed delay estimate to peer (ms).
func (n *Node) Estimate(peer int) (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.est[peer]
	if !ok {
		return 0, false
	}
	return e.v, true
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// recvLoop dispatches inbound protocol packets until the transport closes.
func (n *Node) recvLoop() {
	defer n.done.Done()
	for pkt := range n.cfg.Transport.Recv() {
		typ, err := linkstate.MessageType(pkt.Data)
		if err != nil {
			continue
		}
		switch typ {
		case linkstate.TypeLSA:
			n.handleLSA(pkt)
		case linkstate.TypeData:
			n.handleData(pkt)
		case linkstate.TypeJoinReply:
			n.handleJoinReply(pkt)
		case linkstate.TypePEX:
			n.handlePex(pkt)
		default:
			n.handleControl(pkt)
		}
	}
}

func (n *Node) handleLSA(pkt linkstate.Packet) {
	lsa, err := linkstate.UnmarshalLSA(pkt.Data)
	if err != nil || int(lsa.Origin) == n.cfg.ID {
		return
	}
	if n.db.Apply(lsa) {
		n.invalidateRoutes()
		// Fresh: flood to our protocol peers except the one it came from.
		for _, t := range n.floodTargets() {
			if t != pkt.From && t != int(lsa.Origin) {
				n.send(t, pkt.Data)
			}
		}
	}
}

func (n *Node) handleControl(pkt linkstate.Packet) {
	c, err := linkstate.UnmarshalControl(pkt.Data)
	if err != nil {
		return
	}
	from := int(c.From)
	// Learn by hearing (PEX rule 1): a control message's From names the
	// immediate sender, so its source address can enter the book — this
	// is how a rendezvous node learns a newcomer it has never seen.
	n.learnPeer(from, pkt.Addr)
	switch c.Type {
	case linkstate.TypeEcho:
		reply := &linkstate.Control{Type: linkstate.TypeEchoReply, From: uint16(n.cfg.ID), Token: c.Token}
		n.send(from, reply.Marshal())
	case linkstate.TypeEchoReply:
		n.handleEchoReply(c)
	case linkstate.TypeHello:
		ack := &linkstate.Control{Type: linkstate.TypeHelloAck, From: uint16(n.cfg.ID), Token: c.Token}
		n.send(from, ack.Marshal())
	case linkstate.TypeHelloAck:
		n.mu.Lock()
		n.lastAck[from] = time.Now()
		n.mu.Unlock()
	case linkstate.TypeJoin:
		// Bootstrap duty (Sect. 3.1): answer with the membership we know.
		members := []uint16{uint16(n.cfg.ID)}
		for _, o := range n.db.Origins() {
			members = append(members, uint16(o))
		}
		reply := &linkstate.JoinReply{From: uint16(n.cfg.ID), Members: members}
		if data, err := reply.Marshal(); err == nil {
			n.send(from, data)
		}
		// With PEX the ids alone are useless to a newcomer; hand it the
		// addresses too.
		n.sendPeerList(from)
	}
}

// learnPeer folds a sender's claimed id and observed source address
// into the PEX book and the known-peer set. No-op without a book, for
// self-claims, or when the transport carries no addresses.
func (n *Node) learnPeer(id int, addr *net.UDPAddr) {
	if n.cfg.Book == nil || addr == nil || id == n.cfg.ID || id < 0 || id >= n.cfg.N {
		return
	}
	n.cfg.Book.Register(id, addr)
	n.mu.Lock()
	n.joined[id] = true
	n.mu.Unlock()
}

// handlePex folds a gossiped peer list into the book (PEX rules 2+3).
func (n *Node) handlePex(pkt linkstate.Packet) {
	if n.cfg.Book == nil {
		return
	}
	p, err := linkstate.UnmarshalPeerList(pkt.Data)
	if err != nil {
		return
	}
	n.learnPeer(int(p.From), pkt.Addr)
	n.mu.Lock()
	for _, e := range p.Peers {
		id := int(e.ID)
		if id == n.cfg.ID || id >= n.cfg.N {
			continue
		}
		n.cfg.Book.Register(id, e.UDPAddr())
		n.joined[id] = true
	}
	n.mu.Unlock()
}

// sendPeerList sends a bounded sample of the book to one peer.
func (n *Node) sendPeerList(to int) {
	if n.cfg.Book == nil {
		return
	}
	peers := n.cfg.Book.Peers()
	if len(peers) > linkstate.MaxPexPeers {
		peers = peers[:linkstate.MaxPexPeers]
	}
	msg := &linkstate.PeerList{From: uint16(n.cfg.ID), Peers: peers}
	if data, err := msg.Marshal(); err == nil {
		n.send(to, data)
	}
}

// pexFanout is how many random peers each announce-period gossip push
// reaches; membership spreads in O(log n) pushes.
const pexFanout = 3

// gossipPeers pushes the book to pexFanout random known peers. Runs on
// the timer goroutine (the rng's owner).
func (n *Node) gossipPeers() {
	if n.cfg.Book == nil {
		return
	}
	var ids []int
	for _, p := range n.cfg.Book.Peers() {
		if int(p.ID) != n.cfg.ID {
			ids = append(ids, int(p.ID))
		}
	}
	if len(ids) == 0 {
		return
	}
	n.rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	if len(ids) > pexFanout {
		ids = ids[:pexFanout]
	}
	for _, t := range ids {
		n.sendPeerList(t)
	}
}

// handleJoinReply folds a bootstrap membership list into the node's
// known-peer set so the next probe round reaches them.
func (n *Node) handleJoinReply(pkt linkstate.Packet) {
	reply, err := linkstate.UnmarshalJoinReply(pkt.Data)
	if err != nil {
		return
	}
	n.mu.Lock()
	for _, m := range reply.Members {
		if int(m) != n.cfg.ID && int(m) < n.cfg.N {
			n.joined[int(m)] = true
		}
	}
	n.mu.Unlock()
}

func (n *Node) handleEchoReply(c *linkstate.Control) {
	now := time.Now()
	n.mu.Lock()
	peer, ok := n.pending[c.Token]
	if ok {
		delete(n.pending, c.Token)
	}
	n.mu.Unlock()
	if !ok || peer != int(c.From) {
		return
	}
	rttMS := float64(now.UnixNano()-int64(c.Token)) / 1e6
	if rttMS < 0 {
		return
	}
	oneWay := rttMS / 2
	if n.cfg.DelayOracle != nil {
		oneWay += n.cfg.DelayOracle(n.cfg.ID, peer)
	}
	n.mu.Lock()
	e, ok := n.est[peer]
	if !ok {
		e = &ewma{}
		n.est[peer] = e
	}
	e.fold(oneWay)
	n.lastReply[peer] = now
	n.mu.Unlock()
	if n.cfg.OnProbe != nil {
		n.cfg.OnProbe(peer, oneWay)
	}
}

// timerLoop multiplexes the epoch, announce, heartbeat and measurement
// timers on one goroutine.
func (n *Node) timerLoop() {
	defer n.done.Done()
	// The wiring clock runs at a private phase within T: a fleet of
	// nodes started together would otherwise re-wire in lockstep, each
	// planning against the same stale joint state — the simultaneous-
	// move dynamics the engines avoid by staggering adoptions within an
	// epoch (and real deployments avoid because nothing synchronizes
	// them). The first epoch fires at T + phase, later ones every T.
	phase := time.Duration(n.rng.Int63n(int64(n.cfg.Epoch)))
	firstEpochT := time.NewTimer(n.cfg.Epoch + phase)
	var epochT *time.Ticker
	var epochC <-chan time.Time
	announceT := time.NewTicker(n.cfg.Announce)
	heartbeatT := time.NewTicker(n.cfg.Heartbeat)
	// Probe early so the first epoch has estimates.
	probeT := time.NewTicker(n.cfg.Epoch / 4)
	defer firstEpochT.Stop()
	defer func() {
		if epochT != nil {
			epochT.Stop()
		}
	}()
	defer announceT.Stop()
	defer heartbeatT.Stop()
	defer probeT.Stop()

	n.probeAll()
	for {
		select {
		case <-n.stop:
			return
		case <-probeT.C:
			n.probeAll()
		case <-firstEpochT.C:
			epochT = time.NewTicker(n.cfg.Epoch)
			epochC = epochT.C
			n.runEpoch()
		case <-epochC:
			n.runEpoch()
		case <-announceT.C:
			n.mu.Lock()
			n.announceLocked()
			n.mu.Unlock()
			n.gossipPeers()
		case <-heartbeatT.C:
			n.heartbeat()
		}
	}
}

// probeAll sends one echo to every known node — the paper's O(n)
// per-epoch candidate measurement. Peers come from the link-state
// database plus any bootstrap membership replies.
func (n *Node) probeAll() {
	known := n.db.Origins()
	seen := make(map[int]bool, len(known))
	for _, o := range known {
		seen[o] = true
	}
	n.mu.Lock()
	for m := range n.joined {
		if !seen[m] {
			seen[m] = true
			known = append(known, m)
		}
	}
	n.mu.Unlock()
	for _, peer := range known {
		if peer == n.cfg.ID {
			continue
		}
		token := uint64(time.Now().UnixNano())
		n.mu.Lock()
		// Perturb colliding tokens (same-nanosecond sends).
		for {
			if _, exists := n.pending[token]; !exists {
				break
			}
			token++
		}
		n.pending[token] = peer
		n.mu.Unlock()
		echo := &linkstate.Control{Type: linkstate.TypeEcho, From: uint16(n.cfg.ID), Token: token}
		n.send(peer, echo.Marshal())
	}
}

// runEpoch re-evaluates the node's wiring with the configured policy.
func (n *Node) runEpoch() {
	n.db.Expire()
	start := time.Now()
	g := n.db.Graph()
	active := n.db.Active()
	active[n.cfg.ID] = true

	n.mu.Lock()
	// A peer that has stopped answering probes for two epochs is dead or
	// partitioned away: its EWMA estimate is a ghost that would otherwise
	// keep it wireable forever (its stale LSA can outlive it by several
	// epochs). Treat it as absent; if it heals, the next answered probe
	// reactivates it.
	staleCutoff := time.Now().Add(-2 * n.cfg.Epoch)
	direct := make([]float64, n.cfg.N)
	haveAny := false
	for j := 0; j < n.cfg.N; j++ {
		if j == n.cfg.ID {
			continue
		}
		e, ok := n.est[j]
		if ok {
			if lr, seen := n.lastReply[j]; seen && lr.Before(staleCutoff) {
				ok = false
			}
		}
		if ok {
			direct[j] = e.v
			haveAny = true
		} else {
			// Unmeasured (or silent) peers cannot be costed: treat them
			// as absent until a probe round reaches them.
			direct[j] = core.DisconnectedPenalty
			active[j] = false
		}
	}
	cur := append([]int(nil), n.neighbors...)
	n.mu.Unlock()
	if !haveAny {
		return // nothing measured yet; keep bootstrap wiring
	}

	d, err := decide(&n.view, g, &n.cfg, direct, active, cur, n.rng, &n.sc)
	if err != nil {
		n.logf("node %d: policy: %v", n.cfg.ID, err)
		return
	}
	took := time.Since(start)

	n.mu.Lock()
	n.epochs++
	n.decision += took
	n.rewires += d.Added
	n.neighbors = d.Wiring
	if d.Changed || len(d.Wiring) < len(cur) {
		n.invalidateRoutes()
	}
	if d.Changed {
		n.logf("node %d: rewired to %v (+%d links)", n.cfg.ID, d.Wiring, d.Added)
	}
	n.announceLocked()
	n.mu.Unlock()
}

// decide is the daemon's epoch decision, apart from the measurement and
// the locking around it: every inactive node is cleared from the
// announced view g (which decide edits), f is reset on that masked view
// when the policy prices on it, and core.Rewire decides for cur. The
// forest is reset every epoch, so the cut Rewire leaves is not ended.
func decide(f *graph.SPForest, g *graph.Digraph, cfg *Config, direct []float64, active []bool, cur []int, rng *rand.Rand, sc *core.Scratch) (core.Rewiring, error) {
	view := func() *graph.SPForest {
		for v, on := range active {
			if !on {
				g.ClearNode(v)
			}
		}
		f.Reset(g, cfg.Kind == core.Bottleneck)
		return f
	}
	req := &core.Request{
		Self: cfg.ID, K: cfg.K, Kind: cfg.Kind,
		Direct: direct, Active: active, Rng: rng, Scratch: sc,
	}
	return core.Rewire(view, cfg.Policy, cfg.Epsilon, cur, req)
}

// heartbeat probes donated/backbone links aggressively and, in Immediate
// mode, drops links whose peer has stopped acking.
func (n *Node) heartbeat() {
	n.mu.Lock()
	targets := append([]int(nil), n.neighbors...)
	n.mu.Unlock()
	for _, t := range targets {
		hello := &linkstate.Control{Type: linkstate.TypeHello, From: uint16(n.cfg.ID), Token: uint64(time.Now().UnixNano())}
		n.send(t, hello.Marshal())
	}
	if n.cfg.Mode != Immediate {
		return
	}
	deadline := time.Now().Add(-3 * n.cfg.Heartbeat)
	n.mu.Lock()
	var alive, dropped []int
	for _, t := range targets {
		if ack, ok := n.lastAck[t]; ok && ack.Before(deadline) {
			dropped = append(dropped, t)
			delete(n.lastAck, t)
			delete(n.est, t)
			delete(n.lastReply, t)
		} else {
			alive = append(alive, t)
		}
	}
	if len(dropped) > 0 {
		n.neighbors = alive
		n.db.Forget(uint16(dropped[0]))
		n.announceLocked()
	}
	n.mu.Unlock()
	if len(dropped) > 0 {
		n.logf("node %d: immediate-dropped dead links %v", n.cfg.ID, dropped)
		n.runEpoch() // immediate repair
	}
}

// announceLocked broadcasts a fresh LSA for the current wiring. Callers
// must hold n.mu.
func (n *Node) announceLocked() {
	n.seq++
	lsa := &linkstate.LSA{Origin: uint16(n.cfg.ID), Seq: n.seq}
	for _, nb := range n.neighbors {
		cost := 1.0
		if e, ok := n.est[nb]; ok {
			cost = e.v
		}
		cost = n.cfg.Cheat.Announced(n.cfg.ID, cost, n.cfg.Kind == core.Bottleneck)
		lsa.Neighbors = append(lsa.Neighbors, linkstate.Neighbor{ID: uint16(nb), Cost: cost})
	}
	data := lsa.Marshal()
	for _, nb := range n.floodTargetsLocked() {
		n.send(nb, data)
	}
}

// floodTargets returns the node's protocol peers: its out-neighbors plus
// the nodes that announce a link to it. Overlay links are directed for
// routing but behave as bidirectional adjacencies for LSA flooding, so a
// newcomer that only has out-links still receives the network's LSAs.
func (n *Node) floodTargets() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.floodTargetsLocked()
}

func (n *Node) floodTargetsLocked() []int {
	out := append(n.db.InNeighbors(n.cfg.ID), n.neighbors...)
	slices.Sort(out)
	return slices.Compact(out)
}

func (n *Node) send(to int, data []byte) {
	if err := n.cfg.Transport.Send(to, data); err != nil {
		n.logf("node %d: send to %d: %v", n.cfg.ID, to, err)
	}
}
