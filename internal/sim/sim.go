// Package sim is the epoch-driven simulator that reproduces the paper's
// experiments: it runs a set of overlay nodes above a synthetic underlay
// (internal/underlay), drives their periodic re-wiring with a pluggable
// neighbor-selection policy, injects churn and cheating, and measures true
// routing costs, efficiency and re-wiring counts.
//
// Time advances in wiring epochs of length T. Like the paper's deployment,
// nodes are unsynchronized: each epoch the nodes re-wire one after another
// in a fixed stagger order (one re-wiring every T/n on average). Underlay
// dynamics (delay jitter, load drift, bandwidth wobble) advance once per
// epoch. Estimated costs (what policies see) are produced by the probe
// layer and differ from the true costs (what the measurement layer
// reports), exactly as on a real testbed.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"egoist/internal/cheat"
	"egoist/internal/churn"
	"egoist/internal/coords"
	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/measure"
	"egoist/internal/probe"
	"egoist/internal/underlay"
)

// Metric selects the link-cost metric of Sect. 4.1.
type Metric int

const (
	// DelayPing measures one-way delay with active pings.
	DelayPing Metric = iota
	// DelayCoords estimates delay passively from the virtual coordinate
	// system (the pyxida substitute).
	DelayCoords
	// Load uses the destination node's smoothed CPU load as the cost of
	// every link entering it.
	Load
	// Bandwidth maximizes bottleneck available bandwidth.
	Bandwidth
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case DelayPing:
		return "delay-ping"
	case DelayCoords:
		return "delay-coords"
	case Load:
		return "load"
	case Bandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Kind returns the cost algebra of the metric.
func (m Metric) Kind() core.CostKind {
	if m == Bandwidth {
		return core.Bottleneck
	}
	return core.Additive
}

// Config parameterizes one simulation run.
type Config struct {
	// N is the overlay size; K the per-node degree budget.
	N, K int
	// Seed drives all simulation randomness. Two runs with equal seeds and
	// equal Underlay configuration see identical network conditions, which
	// is how policies are compared "concurrently" as in the paper.
	Seed int64
	// UnderlaySeed fixes the underlay trajectory independently of policy
	// randomness. Zero means derive from Seed.
	UnderlaySeed int64
	// Metric is the link-cost metric.
	Metric Metric
	// Policy selects neighbors. Required. core.Adopt decides at each
	// node's slot whether its proposal is installed: an empty wiring, a
	// lost link or a stub of fewer than min(K, alive others) links — a
	// re-joiner's bootstrap link — always re-wires, whatever the policy.
	// core.KRandom and core.KClosest, and only they, get the paper's
	// connectivity fallback (Sect. 3.2): core.EnforceCycle runs after the
	// initial wiring, after churn and before every measurement.
	Policy core.Policy
	// Epsilon is the BR(ε) re-wiring threshold; applies to BR policies.
	Epsilon float64
	// WarmEpochs run before measurement; MeasureEpochs are recorded.
	WarmEpochs, MeasureEpochs int
	// Churn optionally drives node ON/OFF membership; times are in epochs.
	Churn *churn.Schedule
	// Cheat optionally installs the free-rider model.
	Cheat *cheat.Model
	// Network, when non-nil, replaces the synthetic underlay entirely —
	// e.g. a TraceNetwork replaying a measured delay matrix. Its node
	// count must equal N.
	Network Network
	// Immediate switches failure repair from the paper's default delayed
	// mode (dropped links are replaced at the node's next wiring epoch) to
	// immediate mode (victims re-wire as soon as the failure is detected),
	// per Sect. 3.3.
	Immediate bool
	// PrefAt, when non-nil, supplies non-uniform routing preferences
	// p_ij = PrefAt(epoch)(i, j) used by the wiring policies; a static
	// preference returns the same function every epoch, the scenario
	// harness's demand shifts a different one. The epoch's function is
	// resolved once at the epoch boundary. Measurement reporting stays
	// uniform (the paper's conservative choice, footnote 8), but
	// Result.WeightedCost additionally reports that epoch's
	// preference-weighted cost. The returned function must be safe for
	// concurrent calls.
	PrefAt func(epoch int) func(i, j int) float64
	// Workers sets the parallelism of the per-epoch best-response phase:
	// every node's proposal is computed concurrently against the
	// epoch-start link-state snapshot by up to Workers goroutines, each
	// repairing its own shortest-path forest of the snapshot instead of
	// recomputing all pairs per node. A proposal is used only while no
	// earlier slot has changed the view, so the phase runs only in an
	// epoch after one whose first n/Workers slots all found it unchanged;
	// otherwise, and always with one worker, every node re-wires against
	// the live view at its slot. Zero (or negative) selects
	// runtime.NumCPU(). Results are byte-identical for any value —
	// parallelism changes wall-clock time, never measurements. Custom
	// Policy implementations must be safe for concurrent Select calls on
	// distinct Requests.
	Workers int

	// checkLive makes every edit of the live forest verify it against a
	// from-scratch all-pairs computation of the announced view, failing
	// the run on the first difference (tests only).
	checkLive bool
}

func (c *Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("sim: N = %d, need >= 2", c.N)
	}
	if c.K < 1 || c.K >= c.N {
		return fmt.Errorf("sim: K = %d, need 1 <= K < N", c.K)
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: Policy required")
	}
	if c.MeasureEpochs < 1 {
		return fmt.Errorf("sim: MeasureEpochs = %d, need >= 1", c.MeasureEpochs)
	}
	if c.Churn != nil {
		if c.Churn.N != c.N {
			return fmt.Errorf("sim: churn schedule has %d nodes, config %d", c.Churn.N, c.N)
		}
		return c.Churn.Validate()
	}
	return nil
}

// Result aggregates a run's measurements.
type Result struct {
	// Cost summarizes per-node true routing cost over the measurement
	// window (per-epoch node costs averaged per node, then summarized
	// across nodes). For Bandwidth the value is aggregate bandwidth
	// (higher is better); otherwise lower is better.
	Cost measure.Summary
	// PerNodeCost is each node's time-averaged cost (NaN if never alive).
	PerNodeCost []float64
	// Efficiency summarizes the churn-robustness metric of Sect. 4.4.
	Efficiency measure.Summary
	// PerNodeEfficiency is each node's time-averaged efficiency.
	PerNodeEfficiency []float64
	// Rewires counts established links per epoch (warm + measured).
	Rewires measure.RewireCounter
	// FinalWiring is the overlay wiring at the end of the run.
	FinalWiring [][]int
	// ProbeBits tallies measurement traffic by category.
	ProbeBits map[string]float64
	// LSABits estimates link-state announcement traffic in bits, using the
	// paper's format accounting (192 + 32k bits per announcement).
	LSABits float64
	// EpochsRun is the total number of epochs simulated.
	EpochsRun int
	// WeightedCost summarizes the preference-weighted per-node cost when
	// Config.PrefAt is set (zero Summary otherwise).
	WeightedCost measure.Summary
	// PerEpochCost is the mean true cost over alive nodes at each
	// measured epoch's end (indexed by epoch - WarmEpochs) — the series
	// the scenario harness reads recovery times off. NaN when no node
	// was alive at the snapshot. PerEpochAlive is the alive count at
	// the same snapshots.
	PerEpochCost  []float64
	PerEpochAlive []int
}

// state is the mutable simulation state.
type state struct {
	cfg      Config
	und      Network
	rng      *rand.Rand
	pinger   *probe.Pinger
	bwEst    *probe.BandwidthEstimator
	loadMon  []*probe.LoadMonitor
	coordSys *coords.System
	account  *probe.Accountant

	active  []bool
	wiring  [][]int
	est     [][]float64 // est[i][j]: i's current estimate of direct cost i->j
	churnAt int         // next churn event index
	order   []int       // staggered re-wire order
	pref    func(i, j int) float64

	// epochDirty records whether the announced link-state has changed since
	// the current epoch's proposal snapshot (a node re-wired, membership
	// changed, a cycle was enforced); once set, adoption falls back to the
	// sequential re-wiring path (see parallel.go).
	epochDirty bool
	// cleanSlots counts the current epoch's slots that began with the
	// epoch still clean; computeProposals reads the previous epoch's.
	cleanSlots int

	// live is the shortest-path forest of the announced view the
	// sequential slots price BR proposals on (see parallel.go); liveOK
	// reports that it still matches that view. Changes made outside a
	// slot clear liveOK, and the next slot rebuilds the forest.
	live   *graph.SPForest
	liveOK bool
	// arcs is announcedOut's buffer.
	arcs []graph.Arc

	// seq serves the sequential re-wiring path; forests and proposers
	// hold one shortest-path forest and one proposer per worker of the
	// speculative phase. All persist across epochs so their buffers are
	// reused instead of reallocated.
	seq       proposer
	forests   []*graph.SPForest
	proposers []*proposer
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	return st.run()
}

func newState(cfg Config) (*state, error) {
	var und Network
	if cfg.Network != nil {
		if err := checkNetwork(cfg.Network, cfg.N); err != nil {
			return nil, err
		}
		und = cfg.Network
	} else {
		seed := cfg.UnderlaySeed
		if seed == 0 {
			seed = cfg.Seed + 1
		}
		u, err := underlay.New(underlay.Config{N: cfg.N, Seed: seed})
		if err != nil {
			return nil, err
		}
		und = u
	}
	st := &state{
		cfg:     cfg,
		und:     und,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		account: probe.NewAccountant(),
		active:  make([]bool, cfg.N),
		wiring:  make([][]int, cfg.N),
		est:     make([][]float64, cfg.N),
	}
	if cfg.PrefAt != nil {
		// The initial join below plays under the first epoch's demand.
		st.pref = cfg.PrefAt(0)
	}
	st.pinger = probe.NewPinger(cfg.Seed+2, 0.05, 0.3, st.account)
	st.bwEst = probe.NewBandwidthEstimator(cfg.Seed+3, 0.05, st.account)
	st.loadMon = make([]*probe.LoadMonitor, cfg.N)
	for i := range st.loadMon {
		st.loadMon[i] = probe.NewLoadMonitor(0.5)
		st.loadMon[i].Observe(und.Load(i))
	}
	for i := range st.est {
		st.est[i] = make([]float64, cfg.N)
	}
	for i := range st.active {
		st.active[i] = true
	}
	if cfg.Churn != nil {
		copy(st.active, cfg.Churn.InitialOn)
	}
	if cfg.Metric == DelayCoords {
		st.coordSys = coords.NewSystem(cfg.N)
		sampler := func(i, j int) float64 {
			st.account.Charge("coord", probe.CoordQueryBits(cfg.N)/float64(cfg.N))
			return und.Delay(i, j) * (1 + st.rng.NormFloat64()*0.03)
		}
		st.coordSys.Calibrate(15, sampler)
	}
	st.order = st.rng.Perm(cfg.N)
	st.refreshEstimates()
	// Initial join: every initially-active node wires itself once, in
	// stagger order, over the growing overlay (inherently sequential, so
	// the join epoch is tagged -1 in the policy-RNG derivation).
	for _, i := range st.order {
		if st.active[i] {
			if err := st.rewire(i, -1, nil); err != nil {
				return nil, err
			}
		}
	}
	st.enforceCycleIfNeeded()
	return st, nil
}

// refreshEstimates updates every active node's direct-cost estimates the
// way the paper's measurement schedule does: one probe per pair per epoch.
func (st *state) refreshEstimates() {
	n := st.cfg.N
	st.liveOK = false
	if st.cfg.Metric == Load {
		// Every node samples its local loadavg once per epoch and announces
		// the EWMA via the link-state protocol (no network probing).
		for j := 0; j < n; j++ {
			st.loadMon[j].Observe(st.und.Load(j))
		}
	}
	for i := 0; i < n; i++ {
		if !st.active[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || !st.active[j] {
				continue
			}
			st.est[i][j] = st.estimateOne(i, j)
		}
	}
}

func (st *state) estimateOne(i, j int) float64 {
	switch st.cfg.Metric {
	case DelayPing:
		return st.pinger.Measure(i, j, st.und.Delay(i, j))
	case DelayCoords:
		st.account.Charge("coord", probe.CoordQueryBits(st.cfg.N)/float64(st.cfg.N))
		// Keep the embedding alive with one observation per epoch.
		st.coordSys.Observe(i, j, st.und.Delay(i, j)*(1+st.rng.NormFloat64()*0.03))
		return st.coordSys.Estimate(i, j)
	case Load:
		// The destination's announced (EWMA-smoothed) load is the cost of
		// any link entering it.
		return st.loadMon[j].Value()
	case Bandwidth:
		return st.bwEst.Measure(st.und.AvailBW(i, j))
	default:
		return st.und.Delay(i, j)
	}
}

// announcedGraph materializes the link-state view: every active node's
// announced out-arcs.
func (st *state) announcedGraph() *graph.Digraph {
	g := graph.New(st.cfg.N)
	for u := range st.wiring {
		for _, a := range st.announcedOut(u) {
			g.AddArc(u, a.To, a.W)
		}
	}
	return g
}

// announcedOut returns node u's part of the link-state view: its
// established links to active nodes with the costs it announces
// (cheaters misrepresent theirs), none while u is inactive. The slice is
// reused by the next call.
func (st *state) announcedOut(u int) []graph.Arc {
	arcs := st.arcs[:0]
	if st.active[u] {
		bottleneck := st.bottleneck()
		for _, v := range st.wiring[u] {
			if st.active[v] {
				arcs = append(arcs, graph.Arc{To: v, W: st.cfg.Cheat.Announced(u, st.est[u][v], bottleneck)})
			}
		}
	}
	st.arcs = arcs
	return arcs
}

// trueGraph materializes the real current cost of every established link,
// used only by the measurement layer.
func (st *state) trueGraph() *graph.Digraph {
	g := graph.New(st.cfg.N)
	for u, ws := range st.wiring {
		if !st.active[u] {
			continue
		}
		for _, v := range ws {
			if !st.active[v] {
				continue
			}
			g.AddArc(u, v, st.trueCost(u, v))
		}
	}
	return g
}

func (st *state) trueCost(u, v int) float64 {
	switch st.cfg.Metric {
	case Load:
		return st.und.Load(v)
	case Bandwidth:
		return st.und.AvailBW(u, v)
	default:
		return st.und.Delay(u, v)
	}
}

// rewire re-evaluates node i's wiring against the current (not snapshot)
// link-state view — the sequential path used for initial joins, immediate
// failure repair, and every stagger slot whose speculative proposal is
// missing or stale (see adopt). A BR proposal is priced on the live
// forest with i's out-links cut; the cut is then committed with i's new
// links if i re-wires and restored otherwise. counter, when non-nil,
// records established links. epoch seeds the per-(epoch,node) policy RNG
// (-1 for the initial join, where the wiring is empty and always adopts).
func (st *state) rewire(i, epoch int, counter func(links int)) error {
	var resid [][]float64
	if st.isBR() {
		if !st.liveOK {
			if st.live == nil {
				st.live = graph.NewSPForest()
			}
			st.live.Reset(st.announcedGraph(), st.bottleneck())
			st.liveOK = true
		}
		st.live.RemoveOut(i)
		resid = st.live.Dist()
	}
	p, err := st.propose(i, epoch, st.active, resid, st.wiring[i], &st.seq)
	if err != nil {
		return err
	}
	changed := st.decide(i, &p, counter)
	switch {
	case resid == nil:
		return nil
	case changed:
		st.live.CommitOut(st.announcedOut(i))
	default:
		st.live.RestoreOut()
	}
	return st.checkLive(i)
}

// isBR reports whether the policy prices proposals on residual matrices.
func (st *state) isBR() bool {
	_, ok := st.cfg.Policy.(core.BRPolicy)
	return ok
}

// bottleneck reports whether the metric's paths are widest paths.
func (st *state) bottleneck() bool { return st.cfg.Metric.Kind() == core.Bottleneck }

// checkLive is the checkLive probe, run after node i's slot edited the
// live forest: the forest must equal a from-scratch all-pairs computation
// of the announced view, bit for bit.
func (st *state) checkLive(i int) error {
	if !st.cfg.checkLive {
		return nil
	}
	var want [][]float64
	if g := st.announcedGraph(); st.bottleneck() {
		want = graph.APWidest(g)
	} else {
		want = graph.APSP(g)
	}
	got := st.live.Dist()
	for s := range want {
		for d := range want[s] {
			if math.Float64bits(got[s][d]) != math.Float64bits(want[s][d]) {
				return fmt.Errorf("sim: live forest after node %d's slot: dist[%d][%d] = %v, fresh %v", i, s, d, got[s][d], want[s][d])
			}
		}
	}
	return nil
}

// enforceCycleIfNeeded applies the connectivity fallback of the policies
// that take it.
func (st *state) enforceCycleIfNeeded() {
	switch st.cfg.Policy.(type) {
	case core.KRandom, core.KClosest:
	default:
		return
	}
	if core.EnforceCycle(st.wiring, st.cfg.Metric.Kind(), st.active, func(i, j int) float64 {
		return st.est[i][j]
	}) {
		st.epochDirty = true
		st.liveOK = false
	}
}

// applyChurn processes all membership events scheduled before time t
// (epochs) and reports whether membership changed.
func (st *state) applyChurn(t float64, counter func(links int)) (bool, error) {
	if st.cfg.Churn == nil {
		return false, nil
	}
	changed := false
	events := st.cfg.Churn.Events
	for st.churnAt < len(events) && events[st.churnAt].Time < t {
		e := events[st.churnAt]
		st.churnAt++
		if e.On == st.active[e.Node] {
			continue
		}
		st.active[e.Node] = e.On
		changed = true
		st.epochDirty = true
		st.liveOK = false
		epoch := int(e.Time) // the wiring epoch the event falls in
		if e.On {
			// Re-join: measure candidates, then connect to a single
			// bootstrap neighbor (Sect. 3.1). The full policy wiring
			// happens at the node's next wiring slot, where core.Adopt
			// re-wires the stub whatever the policy; until then the
			// newcomer is only as connected as its bootstrap link — and,
			// under HybridBR, its immediately re-formed backbone cycles.
			for j := 0; j < st.cfg.N; j++ {
				if j != e.Node && st.active[j] {
					st.est[e.Node][j] = st.estimateOne(e.Node, j)
				}
			}
			if boot := st.randomAlive(e.Node); boot >= 0 {
				st.wiring[e.Node] = []int{boot}
				if counter != nil {
					counter(1)
				}
			}
		} else {
			st.wiring[e.Node] = nil
			if st.cfg.Immediate {
				// Immediate mode: every victim of the failure re-wires as
				// soon as the heartbeat monitor would detect it.
				for i := 0; i < st.cfg.N; i++ {
					if i == e.Node || !st.active[i] || !hasLink(st.wiring[i], e.Node) {
						continue
					}
					if err := st.rewire(i, epoch, counter); err != nil {
						return changed, err
					}
				}
			}
		}
		st.repairBackbone(counter)
	}
	return changed, nil
}

// prefRow materializes node i's preference vector for the current
// epoch, or nil for uniform.
func (st *state) prefRow(i int) []float64 {
	if st.pref == nil {
		return nil
	}
	row := make([]float64, st.cfg.N)
	for j := 0; j < st.cfg.N; j++ {
		if j != i {
			row[j] = st.pref(i, j)
		}
	}
	return row
}

func hasLink(ws []int, v int) bool {
	for _, w := range ws {
		if w == v {
			return true
		}
	}
	return false
}

// randomAlive returns a random alive node other than self, or -1.
func (st *state) randomAlive(self int) int {
	var alive []int
	for v := 0; v < st.cfg.N; v++ {
		if v != self && st.active[v] {
			alive = append(alive, v)
		}
	}
	if len(alive) == 0 {
		return -1
	}
	return alive[st.rng.Intn(len(alive))]
}

// repairBackbone implements HybridBR's aggressive monitoring of donated
// links (Sect. 3.3): the connectivity backbone is a pure function of the
// alive ring, so whenever membership changes every alive node immediately
// re-forms its cycles — without waiting for its wiring epoch, unlike the
// lazily-maintained selfish links.
func (st *state) repairBackbone(counter func(links int)) {
	pol, ok := st.cfg.Policy.(core.BRPolicy)
	if !ok || pol.Donated <= 0 {
		return
	}
	for i := 0; i < st.cfg.N; i++ {
		if !st.active[i] {
			continue
		}
		targets := core.DonatedTargets(i, st.cfg.N, pol.Donated, st.active)
		cur := st.wiring[i]
		missing := 0
		have := make(map[int]bool, len(cur))
		for _, v := range cur {
			have[v] = true
		}
		for _, t := range targets {
			if !have[t] {
				missing++
			}
		}
		if missing == 0 {
			continue
		}
		// Keep alive non-backbone links up to the remaining budget, then
		// add the backbone targets.
		isTarget := make(map[int]bool, len(targets))
		for _, t := range targets {
			isTarget[t] = true
		}
		var kept []int
		budget := st.cfg.K - len(targets)
		for _, v := range cur {
			if !isTarget[v] && st.active[v] && len(kept) < budget {
				kept = append(kept, v)
			}
		}
		next := append(append([]int(nil), targets...), kept...)
		sort.Ints(next)
		if added := measure.LinkDiff(st.wiring[i], next); added > 0 && counter != nil {
			counter(added)
		}
		st.wiring[i] = next
		st.liveOK = false
	}
}

func (st *state) run() (*Result, error) {
	cfg := st.cfg
	res := &Result{
		PerNodeCost:       make([]float64, cfg.N),
		PerNodeEfficiency: make([]float64, cfg.N),
	}
	costSamples := make([]int, cfg.N)
	effSamples := make([]int, cfg.N)
	weighted := make([]float64, cfg.N)

	snapshot := func(endOfEpoch bool) {
		// The connectivity fallback of k-Random/k-Closest is maintained
		// continuously by the deployed systems; apply it before observing.
		st.enforceCycleIfNeeded()
		tg := st.trueGraph()
		costs := measure.NodeCosts(tg, cfg.Metric.Kind(), st.active)
		effs := measure.Efficiency(tg, st.active)
		var wcosts []float64
		if st.pref != nil {
			wcosts = measure.WeightedNodeCosts(tg, cfg.Metric.Kind(), st.active, st.pref)
		}
		epochSum, epochAlive := 0.0, 0
		for i := 0; i < cfg.N; i++ {
			if st.active[i] {
				res.PerNodeCost[i] += costs[i]
				costSamples[i]++
				res.PerNodeEfficiency[i] += effs[i]
				effSamples[i]++
				epochSum += costs[i]
				epochAlive++
				if wcosts != nil {
					weighted[i] += wcosts[i]
				}
			}
		}
		if endOfEpoch {
			if epochAlive > 0 {
				res.PerEpochCost = append(res.PerEpochCost, epochSum/float64(epochAlive))
			} else {
				res.PerEpochCost = append(res.PerEpochCost, nan())
			}
			res.PerEpochAlive = append(res.PerEpochAlive, epochAlive)
		}
	}

	total := cfg.WarmEpochs + cfg.MeasureEpochs
	for epoch := 0; epoch < total; epoch++ {
		if cfg.PrefAt != nil {
			st.pref = cfg.PrefAt(epoch)
		}
		st.und.Step(1)
		st.refreshEstimates()
		counter := func(links int) { res.Rewires.Record(epoch, links) }

		// Speculative best-response phase: every node's proposal is
		// computed concurrently against the epoch-start link-state
		// snapshot (nil with a single worker; see parallel.go).
		props, err := st.computeProposals(epoch)
		if err != nil {
			return nil, err
		}

		// Staggered adoption: node order[p] acts at time epoch + p/n.
		for p, i := range st.order {
			t := float64(epoch) + float64(p)/float64(cfg.N)
			if _, err := st.applyChurn(t, counter); err != nil {
				return nil, err
			}
			if p == cfg.N/2 && epoch >= cfg.WarmEpochs {
				// Mid-epoch snapshot: nodes whose re-wiring slot has not
				// come yet still carry links broken by churn, so transient
				// disconnections show up in the measurements the way the
				// paper's continuous monitoring sees them.
				snapshot(false)
			}
			if !st.epochDirty {
				st.cleanSlots = p + 1
			}
			if st.active[i] {
				var prop *proposal
				if props != nil {
					prop = &props[i]
				}
				if err := st.adopt(i, epoch, prop, counter); err != nil {
					return nil, err
				}
			}
		}
		if _, err := st.applyChurn(float64(epoch+1), counter); err != nil {
			return nil, err
		}
		st.enforceCycleIfNeeded()

		// Each node announces (192 + 32k bits) every Tannounce = T/3.
		for i := 0; i < cfg.N; i++ {
			if st.active[i] {
				res.LSABits += 3 * float64(192+32*len(st.wiring[i]))
			}
		}

		if epoch >= cfg.WarmEpochs {
			snapshot(true)
		}
	}

	for i := 0; i < cfg.N; i++ {
		if costSamples[i] > 0 {
			res.PerNodeCost[i] /= float64(costSamples[i])
			res.PerNodeEfficiency[i] /= float64(effSamples[i])
		} else {
			res.PerNodeCost[i] = nan()
			res.PerNodeEfficiency[i] = nan()
		}
	}
	res.Cost = measure.Summarize(res.PerNodeCost)
	res.Efficiency = measure.Summarize(res.PerNodeEfficiency)
	if cfg.PrefAt != nil {
		for i := 0; i < cfg.N; i++ {
			if costSamples[i] > 0 {
				weighted[i] /= float64(costSamples[i])
			} else {
				weighted[i] = nan()
			}
		}
		res.WeightedCost = measure.Summarize(weighted)
	}
	res.FinalWiring = make([][]int, cfg.N)
	for i := range st.wiring {
		res.FinalWiring[i] = append([]int(nil), st.wiring[i]...)
	}
	res.ProbeBits = map[string]float64{}
	for _, c := range st.account.Categories() {
		res.ProbeBits[c] = st.account.Total(c)
	}
	res.EpochsRun = total
	return res, nil
}

func nan() float64 { return math.NaN() }
