package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"egoist/internal/churn"
	"egoist/internal/graph"
	"egoist/internal/plane"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// Options tunes one runner invocation without touching the spec.
type Options struct {
	// Engine overrides the spec's engine ("" keeps it).
	Engine string
	// Workers is the engine parallelism (0 = NumCPU). Metrics are
	// byte-identical for any value.
	Workers int
}

// Metrics is one run's deterministic record — the BENCH_scenarios.json
// schema. Everything here is a pure function of (spec, engine); no
// wall-clock fields, so records compare byte-for-byte across worker
// counts and reruns.
type Metrics struct {
	Scenario  string  `json:"scenario"`
	Engine    string  `json:"engine"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Seed      int64   `json:"seed"`
	Epochs    int     `json:"epochs"`
	Converged bool    `json:"converged"`
	ChurnRate float64 `json:"churn_rate"` // the paper's Sect. 4.4 metric over the horizon
	Joins     int     `json:"joins"`
	Leaves    int     `json:"leaves"`
	// CostPerEpoch is the engine's per-epoch cost series, normalized
	// per destination pair (the engine totals divided by alive-1), so
	// values stay comparable across membership changes: a join wave's
	// bigger roster does not masquerade as a cost regression. Scale
	// reports estimated costs, full true costs. Unobservable epochs
	// carry -1.
	CostPerEpoch []float64 `json:"cost_per_epoch"`
	// RewiresPerEpoch counts re-wiring nodes (scale) or established
	// links (full) per epoch.
	RewiresPerEpoch []int   `json:"rewires_per_epoch"`
	MeanRewires     float64 `json:"mean_rewires_per_epoch"`
	// PreEventCost is the cost one epoch before the last
	// membership/demand event; FinalCost the last epoch's cost.
	PreEventCost float64 `json:"pre_event_cost"`
	FinalCost    float64 `json:"final_cost"`
	// RecoveryEpochs is how many epochs after the last event's epoch
	// the cost first returned to within the tolerance (Expect's, or 5%)
	// of PreEventCost: -1 = never within the run, -2 = no events.
	RecoveryEpochs int `json:"recovery_epochs"`
	// Serve holds the serve-under-churn measurements when the spec
	// enables the data plane (nil otherwise).
	Serve *ServeMetrics `json:"serve,omitempty"`
	// Lab holds the deployment measurements when the record came from
	// the real-process lab engine (RunLab; nil for simulated runs).
	Lab *LabMetrics `json:"lab,omitempty"`
}

// ServeMetrics records the data plane hammered alongside a scenario:
// each epoch a deterministic panel of src/dst pairs drawn from the
// currently-alive roster is answered from the snapshot published at
// the previous epoch's end — the one-epoch staleness a live client
// sees while the overlay re-wires underneath it.
type ServeMetrics struct {
	QueriesPerEpoch int `json:"queries_per_epoch"`
	// Queries counts issued lookups; Failed counts lookups no published
	// snapshot could answer. The runner errors when Failed > 0: with
	// the bootstrap wiring published before epoch 0, every query must
	// be answerable from some snapshot.
	Queries int `json:"queries"`
	Failed  int `json:"failed"`
	// AvailabilityPerEpoch is the fraction of the epoch's lookups whose
	// destination was overlay-reachable in the serving snapshot (-1
	// when the epoch issued no queries). StretchPerEpoch is the mean,
	// over reachable lookups, of overlay-route cost divided by the
	// direct underlay delay (-1 when unobservable).
	AvailabilityPerEpoch []float64 `json:"availability_per_epoch"`
	StretchPerEpoch      []float64 `json:"stretch_per_epoch"`
	// MinAvailability and MeanStretch aggregate the series.
	MinAvailability float64 `json:"min_availability"`
	MeanStretch     float64 `json:"mean_stretch"`
}

// compiled is a spec lowered to engine inputs.
type compiled struct {
	sched     *churn.Schedule                        // nil: static membership
	demandAt  func(epoch int) func(i, j int) float64 // nil: uniform demand
	lastEvent float64                                // last timeline-event epoch, -1 if none
}

// compile lowers the spec: the background churn process plus the
// membership waves of the event timeline become one churn.Schedule
// (waves pick their victims from the membership state replayed to the
// event's epoch), and the demand model plus its flips become a
// per-epoch demand function.
func (s *Spec) compile() (*compiled, error) {
	out := &compiled{lastEvent: -1}
	var sched *churn.Schedule
	switch {
	case s.Churn == nil:
		sched = nil
	case s.Churn.Process == "static":
		sched = staticSchedule(s)
	default:
		var on, off churn.SessionDist
		if s.Churn.Process == "pareto" {
			alpha := s.Churn.Alpha
			if alpha == 0 {
				alpha = 1.5
			}
			on = churn.Pareto{Mean: s.Churn.OnMean, Alpha: alpha}
			off = churn.Pareto{Mean: s.Churn.OffMean, Alpha: alpha}
		} else {
			on = churn.Exponential{Mean: s.Churn.OnMean}
			off = churn.Exponential{Mean: s.Churn.OffMean}
		}
		var err error
		sched, err = churn.GenerateSynthetic(churn.SyntheticConfig{
			N: s.N, Horizon: float64(s.Epochs),
			On: on, Off: off,
			Seed:    s.Seed + 101,
			StartOn: s.Churn.StartOn,
		})
		if err != nil {
			return nil, err
		}
		if ts := s.Churn.Timescale; ts > 0 && ts != 1 {
			sched = sched.Rescale(ts).Truncate(float64(s.Epochs))
		}
	}

	// Overlay the timeline: replay membership to each event's epoch,
	// select the wave deterministically, and inject the resulting
	// single-node events.
	var flips []float64
	needsMembership := false
	for _, e := range s.Events {
		if e.Kind != DemandFlip {
			needsMembership = true
		}
	}
	if needsMembership && sched == nil {
		sched = staticSchedule(s)
	}
	var injected []churn.Event
	var replayAt int
	var on []bool
	if sched != nil {
		on = append([]bool(nil), sched.InitialOn...)
	}
	for evi, e := range s.Events {
		if e.Kind == DemandFlip {
			flips = append(flips, e.Epoch)
			out.lastEvent = e.Epoch
			continue
		}
		// Replay base events up to the wave's epoch. Injected events are
		// applied to the state as they are generated (the timeline is in
		// epoch order), so later waves see earlier waves.
		for replayAt < len(sched.Events) && sched.Events[replayAt].Time < e.Epoch {
			ev := sched.Events[replayAt]
			on[ev.Node] = ev.On
			replayAt++
		}
		picked, turnOn := s.lowerWave(evi, on)
		for _, v := range picked {
			injected = append(injected, churn.Event{Time: e.Epoch, Node: v, On: turnOn})
		}
		out.lastEvent = e.Epoch
	}
	if sched != nil {
		if len(injected) > 0 {
			sched.Events = append(sched.Events, injected...)
			sort.SliceStable(sched.Events, func(a, b int) bool {
				return sched.Events[a].Time < sched.Events[b].Time
			})
		}
		if err := sched.Validate(); err != nil {
			return nil, err
		}
		// A background process alone has no "event" to recover from;
		// only the timeline sets lastEvent.
		out.sched = sched
	}

	if base := s.demandFn(0); base != nil {
		flipped := flips
		out.demandAt = func(epoch int) func(i, j int) float64 {
			n := 0
			for _, t := range flipped {
				if float64(epoch) > t-1e-9 {
					n++
				}
			}
			return s.demandFn(n)
		}
	}
	return out, nil
}

// lowerWave lowers membership event evi of the timeline over the state
// on, replayed to the event's epoch: it draws the wave's victims from
// the event's own seeded RNG (a region's for an outage or heal),
// applies the wave to on, and reports the victims and the state they
// were turned to. compile() and lowerLabEvents both lower through it, so
// the sim and lab legs play one membership trajectory.
func (s *Spec) lowerWave(evi int, on []bool) (picked []int, turnOn bool) {
	e := s.Events[evi]
	rng := rand.New(rand.NewSource(s.Seed + 7919*int64(evi+1)))
	switch e.Kind {
	case JoinWave:
		picked = pickWave(rng, on, false, int(math.Round(e.Frac*float64(s.N))))
	case LeaveWave:
		alive := 0
		for _, b := range on {
			if b {
				alive++
			}
		}
		picked = pickWave(rng, on, true, int(math.Round(e.Frac*float64(alive))))
	case Outage, Heal:
		regions := e.Regions
		if regions == 0 {
			regions = 4
		}
		lo, hi := e.Region*s.N/regions, (e.Region+1)*s.N/regions
		for v := lo; v < hi; v++ {
			if on[v] == (e.Kind == Outage) {
				picked = append(picked, v)
			}
		}
	}
	turnOn = e.Kind == JoinWave || e.Kind == Heal
	for _, v := range picked {
		on[v] = turnOn
	}
	return picked, turnOn
}

// staticSchedule is membership without background events: all nodes on
// (or a deterministic StartOn subset under a "static" churn process).
func staticSchedule(s *Spec) *churn.Schedule {
	sched := &churn.Schedule{N: s.N, InitialOn: make([]bool, s.N)}
	startOn := 1.0
	if s.Churn != nil && s.Churn.StartOn > 0 {
		startOn = s.Churn.StartOn
	}
	rng := rand.New(rand.NewSource(s.Seed + 53))
	for v := range sched.InitialOn {
		sched.InitialOn[v] = rng.Float64() < startOn
	}
	return sched
}

// pickWave selects count nodes with on-state == from, by shuffled draw.
func pickWave(rng *rand.Rand, on []bool, from bool, count int) []int {
	var pool []int
	for v, b := range on {
		if b == from {
			pool = append(pool, v)
		}
	}
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	if count > len(pool) {
		count = len(pool)
	}
	picked := append([]int(nil), pool[:count]...)
	sort.Ints(picked)
	return picked
}

// demandFn materializes the demand model after the given number of
// flips, or nil for uniform demand.
func (s *Spec) demandFn(flips int) func(i, j int) float64 {
	if s.Demand == nil || s.Demand.Kind == "uniform" {
		return nil
	}
	switch s.Demand.Kind {
	case "gravity":
		if flips%2 == 1 {
			// A flip transposes the gravity skew.
			return func(i, j int) float64 { return 1 + float64((j*31+i*17)%7) }
		}
		return func(i, j int) float64 { return 1 + float64((i*31+j*17)%7) }
	case "hotspot":
		n := s.N
		h := s.Demand.Hotspots
		if h <= 0 {
			h = n / 20
			if h < 1 {
				h = 1
			}
		}
		weight := s.Demand.Weight
		if weight == 0 {
			weight = 10
		}
		stride := n / h
		if stride < 1 {
			stride = 1
		}
		// Hotspots sit at every stride-th id; each flip shifts the set
		// by half a stride, so consecutive flips alternate between two
		// disjoint hot sets.
		offset := (flips % 2) * (stride / 2)
		return func(i, j int) float64 {
			if (j-offset)%stride == 0 && j >= offset {
				return weight
			}
			return 1
		}
	}
	return nil
}

// Run executes one scenario and returns its metrics record. When the
// spec carries expectations, a violated expectation is an error (the
// metrics are still returned for diagnosis).
func Run(spec Spec, opts Options) (*Metrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	engine := spec.Engine
	if opts.Engine != "" {
		engine = opts.Engine
	}
	if engine == "" {
		engine = EngineScale
	}
	comp, err := spec.compile()
	if err != nil {
		return nil, err
	}
	m := &Metrics{
		Scenario: spec.Name, Engine: engine,
		N: spec.N, K: spec.K, Seed: spec.Seed,
	}
	if comp.sched != nil {
		m.ChurnRate = comp.sched.Rate(float64(spec.Epochs))
	}
	switch engine {
	case EngineScale:
		err = runScaleEngine(&spec, comp, opts, m)
	case EngineFull:
		err = runFullEngine(&spec, comp, opts.Workers, m)
	default:
		return nil, fmt.Errorf("scenario %s: unknown engine %q", spec.Name, engine)
	}
	if err != nil {
		return nil, err
	}
	finishMetrics(m, comp, spec.recoverTol())
	return m, checkExpect(&spec, m)
}

// recoverTol is the spec's recovery tolerance (Expect's, or 5%).
func (s *Spec) recoverTol() float64 {
	if s.Expect != nil && s.Expect.RecoverWithin > 0 {
		return s.Expect.RecoverWithin
	}
	return 0.05
}

func runScaleEngine(spec *Spec, comp *compiled, opts Options, m *Metrics) error {
	_, sample := sim.HeadlineRecipe(spec.N, spec.K)
	if spec.Sample != "" {
		var err error
		if sample, err = sampling.ParseSpec(spec.Sample); err != nil {
			return err
		}
	}
	cfg := sim.ScaleConfig{
		N: spec.N, K: spec.K, Seed: spec.Seed,
		Sample: sample, Epsilon: spec.Epsilon,
		MaxEpochs: spec.Epochs, Workers: opts.Workers,
		StaggerBatches: spec.Stagger,
		Churn:          comp.sched,
		DemandAt:       comp.demandAt,
	}
	var serve *servePlane
	if spec.Serve != nil {
		// The hook needs the engine's delay oracle to compile snapshots
		// and price stretch; constructing the engine default explicitly
		// (same constructor, same arguments) keeps the run byte-identical
		// to a serve-less run of the same spec.
		net, err := underlay.NewLite(spec.N, spec.Seed+1)
		if err != nil {
			return err
		}
		cfg.Net = net
		serve = &servePlane{
			spec: spec, net: net, srv: plane.NewServer(),
			m: &ServeMetrics{QueriesPerEpoch: spec.Serve.QueriesPerEpoch},
		}
		cfg.OnPublish = serve.onEpoch
		if spec.Serve.Publish == PublishSubround {
			// Sub-epoch cadence: the data plane re-publishes after every
			// stagger sub-round via the delta-patch path, and the query
			// panel measures each sub-round window against the snapshot
			// published one sub-round earlier.
			cfg.OnPublish = serve.onPublish
		}
	}
	if len(spec.Events) > 0 {
		// The engine's early convergence stop only waits for membership
		// events; a timeline with demand flips (or a recovery window to
		// observe) needs the full horizon.
		cfg.ConvergedFrac = -1
	}
	res, err := sim.RunScale(cfg)
	if err != nil {
		return err
	}
	m.Epochs = res.Epochs
	m.Joins, m.Leaves = res.Joins, res.Leaves
	for _, ep := range res.PerEpoch {
		if ep.Acted == 0 {
			// A drained overlay sat the epoch out: its zero cost is
			// unobservable, not cheap.
			m.CostPerEpoch = append(m.CostPerEpoch, -1)
			m.RewiresPerEpoch = append(m.RewiresPerEpoch, ep.Rewires)
			continue
		}
		denom := float64(ep.Alive - 1)
		if denom < 1 {
			denom = 1
		}
		m.CostPerEpoch = append(m.CostPerEpoch, ep.MeanEstCost/denom)
		m.RewiresPerEpoch = append(m.RewiresPerEpoch, ep.Rewires)
	}
	m.Converged = res.Converged
	if !m.Converged && res.Epochs > 0 {
		// With the early stop disabled the engine never reports
		// convergence; apply its 1%-of-alive criterion to the last
		// epoch instead.
		last := res.PerEpoch[res.Epochs-1]
		m.Converged = float64(last.Rewires) <= 0.01*float64(last.Alive)
	}
	if serve != nil {
		m.Serve = serve.finish()
		if m.Serve.Failed > 0 {
			// Not an expectation — a violated harness contract: the
			// bootstrap publish must make every query answerable from
			// some snapshot.
			return fmt.Errorf("scenario %s: %d of %d lookups had no published snapshot to answer from",
				spec.Name, m.Serve.Failed, m.Serve.Queries)
		}
	}
	return nil
}

// servePlane is the per-run serve-under-churn state behind the scale
// engine's OnPublish hook: onEpoch (publish mode "epoch") keeps only the
// epoch-final publications, onPublish (publish mode "subround") patches
// on every one.
type servePlane struct {
	spec  *Spec
	net   *underlay.Lite
	srv   *plane.Server
	m     *ServeMetrics
	alive []int

	// Subround-mode state — the latest published snapshot (the delta
	// chain's tip) and a monotone publication sequence used as the
	// snapshot epoch tag — then the current epoch's panel tally, which
	// both modes keep.
	prev      *plane.Snapshot
	seq       int64
	epQueries int
	epReach   int
	epStretch float64
}

// onEpoch is the epoch-mode engine hook. It filters the publication
// stream down to its epoch-final entries: measure the epoch's query
// panel against the previously published snapshot (what clients were
// served while this epoch re-wired), then compile and publish the
// epoch-final snapshot. The bootstrap publication only publishes. Runs
// serially inside the engine, with seeded randomness — deterministic at
// any worker count.
func (sp *servePlane) onEpoch(pub sim.Publication) {
	if !pub.EpochFinal() {
		return
	}
	if !pub.Full {
		sp.setAlive(pub.Active)
		if len(sp.alive) >= 2 {
			rng := rand.New(rand.NewSource(sp.spec.Seed + 7717*(int64(pub.Epoch)+2)))
			sp.panel(rng, sp.spec.Serve.QueriesPerEpoch)
		}
		sp.flush()
	}
	sp.srv.Publish(plane.Compile(int64(pub.Epoch), pub.Wiring, pub.Active, sp.net, plane.Options{}))
}

// onPublish is the subround-mode engine hook, one call per stagger
// sub-round: first the sub-round's slice of the epoch's query panel is
// measured against the currently-served snapshot (published one
// sub-round ago — the staleness a live client sees under sub-epoch
// publication), then the changed rows are delta-patched onto the
// previous snapshot and the result is published. The bootstrap Full
// publication compiles from scratch and only publishes. Runs serially
// inside the engine with seeded randomness, so records stay
// byte-identical at any Workers.
func (sp *servePlane) onPublish(pub sim.Publication) {
	if pub.Full {
		sp.prev = plane.Compile(sp.seq, pub.Wiring, pub.Active, sp.net, plane.Options{})
		sp.seq++
		sp.srv.Publish(sp.prev)
		return
	}
	sp.measureSlice(&pub)
	sp.prev = sp.prev.Patch(sp.seq, pub.Changed, pub.Wiring, pub.Active)
	sp.seq++
	sp.srv.Publish(sp.prev)
}

// measureSlice runs the query-panel slice of one sub-round window. An
// epoch has Rounds+1 publications (sub-rounds 0..Rounds-1 plus the
// epoch-final churn drain), so the panel splits into Rounds+1
// near-equal slices; the final slice flushes the epoch's tally into
// the per-epoch series.
func (sp *servePlane) measureSlice(pub *sim.Publication) {
	q := sp.spec.Serve.QueriesPerEpoch
	slots := pub.Rounds + 1
	lo, hi := q*pub.SubRound/slots, q*(pub.SubRound+1)/slots
	sp.setAlive(pub.Active)
	if hi > lo && len(sp.alive) >= 2 {
		rng := rand.New(rand.NewSource(sp.spec.Seed + 7717*(int64(pub.Epoch)+2) + 104729*int64(pub.SubRound+1)))
		sp.panel(rng, hi-lo)
	}
	if pub.SubRound == pub.Rounds {
		sp.flush()
	}
}

// setAlive rebuilds the roster the panel draws its endpoints from.
func (sp *servePlane) setAlive(active []bool) {
	sp.alive = sp.alive[:0]
	for v, on := range active {
		if on {
			sp.alive = append(sp.alive, v)
		}
	}
}

// panel asks the currently served snapshot for queries routes between
// distinct alive endpoints drawn from rng, adding them to the epoch's
// tally. Needs two alive nodes.
func (sp *servePlane) panel(rng *rand.Rand, queries int) {
	snap := sp.srv.Current()
	for i := 0; i < queries; i++ {
		src := sp.alive[rng.Intn(len(sp.alive))]
		dst := sp.alive[rng.Intn(len(sp.alive))]
		for dst == src {
			dst = sp.alive[rng.Intn(len(sp.alive))]
		}
		sp.m.Queries++
		sp.epQueries++
		if snap == nil {
			sp.m.Failed++
			continue
		}
		if cost := snap.RouteCost(src, dst); cost < graph.Inf {
			sp.epReach++
			sp.epStretch += cost / sp.net.Delay(src, dst)
		}
	}
}

// flush closes the epoch's tally into the per-epoch availability and
// mean-stretch series; -1 marks an epoch with no query, or no reachable
// one to take a stretch from.
func (sp *servePlane) flush() {
	avail, stretch := -1.0, -1.0
	if sp.epQueries > 0 {
		avail = float64(sp.epReach) / float64(sp.epQueries)
		if sp.epReach > 0 {
			stretch = sp.epStretch / float64(sp.epReach)
		}
	}
	sp.m.AvailabilityPerEpoch = append(sp.m.AvailabilityPerEpoch, avail)
	sp.m.StretchPerEpoch = append(sp.m.StretchPerEpoch, stretch)
	sp.epQueries, sp.epReach, sp.epStretch = 0, 0, 0
}

// finish derives the aggregates.
func (sp *servePlane) finish() *ServeMetrics {
	m := sp.m
	m.MinAvailability = -1
	sum, ns := 0.0, 0
	for i, a := range m.AvailabilityPerEpoch {
		if a >= 0 && (m.MinAvailability < 0 || a < m.MinAvailability) {
			m.MinAvailability = a
		}
		if s := m.StretchPerEpoch[i]; s >= 0 {
			sum += s
			ns++
		}
	}
	m.MeanStretch = -1
	if ns > 0 {
		m.MeanStretch = sum / float64(ns)
	}
	return m
}

func runFullEngine(spec *Spec, comp *compiled, workers int, m *Metrics) error {
	if spec.Serve != nil {
		return fmt.Errorf("scenario %s: serve-under-churn requires the scale engine", spec.Name)
	}
	policy, err := spec.policy()
	if err != nil {
		return err
	}
	cfg := sim.Config{
		N: spec.N, K: spec.K, Seed: spec.Seed,
		Policy: policy, Epsilon: spec.Epsilon,
		// Warm epochs would shift the event clock; scenarios measure
		// from epoch 0 so event epochs and cost series line up.
		WarmEpochs: 0, MeasureEpochs: spec.Epochs,
		Churn:   comp.sched,
		PrefAt:  comp.demandAt,
		Workers: workers,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	m.Epochs = res.EpochsRun
	for e, c := range res.PerEpochCost {
		denom := 1.0
		if e < len(res.PerEpochAlive) && res.PerEpochAlive[e] > 2 {
			denom = float64(res.PerEpochAlive[e] - 1)
		}
		m.CostPerEpoch = append(m.CostPerEpoch, c/denom)
	}
	m.RewiresPerEpoch = append(m.RewiresPerEpoch, res.Rewires.PerEpoch()...)
	for len(m.RewiresPerEpoch) < m.Epochs {
		m.RewiresPerEpoch = append(m.RewiresPerEpoch, 0)
	}
	// The full engine has no convergence flag; call the run converged
	// when the final epoch's link churn fell to ≤ 2% of the overlay's
	// link capital.
	if n := len(m.RewiresPerEpoch); n > 0 {
		m.Converged = float64(m.RewiresPerEpoch[n-1]) <= 0.02*float64(spec.N*spec.K)
	}
	if comp.sched != nil {
		for _, e := range comp.sched.Events {
			if e.Time >= float64(spec.Epochs) {
				break
			}
			if e.On {
				m.Joins++
			} else {
				m.Leaves++
			}
		}
	}
	return nil
}

// finishMetrics derives the aggregate fields from the per-epoch series.
func finishMetrics(m *Metrics, comp *compiled, tol float64) {
	for i, c := range m.CostPerEpoch {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			m.CostPerEpoch[i] = -1
		}
	}
	total := 0
	for _, r := range m.RewiresPerEpoch {
		total += r
	}
	if len(m.RewiresPerEpoch) > 0 {
		m.MeanRewires = float64(total) / float64(len(m.RewiresPerEpoch))
	}
	if len(m.CostPerEpoch) > 0 {
		m.FinalCost = m.CostPerEpoch[len(m.CostPerEpoch)-1]
	}
	m.RecoveryEpochs = -2
	if comp.lastEvent >= 0 {
		m.PreEventCost, m.RecoveryEpochs = recovery(m.CostPerEpoch, comp.lastEvent, tol)
	}
}

// recovery scans the cost series for the first epoch after the event's
// whose cost returned to within tol of the pre-event cost, returning
// the pre-event cost and the epoch distance (-1: never). Unobservable
// epochs (cost <= 0) never count as recovered.
func recovery(costs []float64, eventEpoch float64, tol float64) (pre float64, rec int) {
	evt := int(eventEpoch)
	if len(costs) == 0 || evt >= len(costs) {
		return 0, -1
	}
	preIdx := evt - 1
	if preIdx < 0 {
		preIdx = 0
	}
	pre = costs[preIdx]
	if pre <= 0 {
		return pre, -1
	}
	for d := 1; evt+d < len(costs); d++ {
		c := costs[evt+d]
		if c > 0 && c <= pre*(1+tol) {
			return pre, d
		}
	}
	return pre, -1
}

// checkExpect gates the run on the spec's expectations. RecoveryEpochs
// was already derived under the spec's own tolerance (recoverTol), so
// the gate reads it directly.
func checkExpect(spec *Spec, m *Metrics) error {
	e := spec.Expect
	if e == nil {
		return nil
	}
	if e.MustConverge && !m.Converged {
		return fmt.Errorf("scenario %s/%s: expected convergence, got none in %d epochs", m.Scenario, m.Engine, m.Epochs)
	}
	if e.MaxRecoveryEpochs > 0 {
		if m.RecoveryEpochs < 0 || m.RecoveryEpochs > e.MaxRecoveryEpochs {
			return fmt.Errorf("scenario %s/%s: no recovery to within %.0f%% of pre-event cost %.1f in %d epochs (got %d; costs %v)",
				m.Scenario, m.Engine, spec.recoverTol()*100, m.PreEventCost, e.MaxRecoveryEpochs, m.RecoveryEpochs, m.CostPerEpoch)
		}
	}
	if e.MinAvailability > 0 {
		if m.Serve == nil {
			return fmt.Errorf("scenario %s/%s: min_availability expected but the run served no queries", m.Scenario, m.Engine)
		}
		if m.Serve.MinAvailability < e.MinAvailability {
			return fmt.Errorf("scenario %s/%s: data-plane availability dipped to %.3f, below the %.3f floor (per-epoch %v)",
				m.Scenario, m.Engine, m.Serve.MinAvailability, e.MinAvailability, m.Serve.AvailabilityPerEpoch)
		}
	}
	return nil
}

// WriteMetricsJSON writes records to path as a sorted, indented JSON
// array — the BENCH_scenarios.json artifact. Identical specs produce
// byte-identical files at any worker count.
func WriteMetricsJSON(path string, recs []*Metrics) error {
	out := append([]*Metrics(nil), recs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Scenario != out[b].Scenario {
			return out[a].Scenario < out[b].Scenario
		}
		return out[a].Engine < out[b].Engine
	})
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadMetricsJSON reads a BENCH_scenarios.json file back.
func ReadMetricsJSON(path string) ([]*Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*Metrics
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
