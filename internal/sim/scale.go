package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"egoist/internal/churn"
	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/par"
	"egoist/internal/sampling"
	"egoist/internal/underlay"
)

// This file is the large-scale simulation mode: best-response dynamics
// for overlays of 10k+ nodes, where the full engine's per-node O(n²)
// residual matrices and O(n) destination rosters are out of the
// question. Three ideas make it scale:
//
//  1. Sampled destinations (Sect. 5 generalized from the newcomer
//     experiment to every node): per epoch each node draws a weighted
//     destination sample and optimizes the inverse-probability
//     (Horvitz–Thompson) estimate of its full-roster cost, adopting a
//     new wiring only on a BR(ε) improvement of the paired estimates —
//     the pairing cancels the sampling noise that would otherwise keep
//     equilibria twitching forever.
//
//  2. A shared facility directory (the "pool"): the candidate
//     facilities any node may wire this epoch are drawn from a bounded
//     pool — every currently wired target plus a rotating crop of
//     explorer nodes. One exact single-source shortest-path row per
//     pool member is kept over the live overlay — computed when the
//     member enters the directory, repaired incrementally after every
//     re-wiring, carried across the epoch boundary while the member
//     stays — and shared by all nodes, so residual distances are real
//     distances:
//     an earlier design that estimated them from per-node induced
//     subgraphs (or landmark shortcuts) either drowned the dynamics in
//     phantom disconnection penalties or collapsed the overlay by
//     trusting paths that vanished mid-epoch. Total distance work per
//     epoch is at most O(|pool|·E·log n), and in practice the repairs
//     plus one Dijkstra per member the rotation brought in —
//     independent of it being shared by all n solvers.
//
//  3. Staggered adoption in batches, a coarse version of the paper's
//     one-node-at-a-time stagger: each epoch runs StaggerBatches
//     sub-rounds; proposals are computed in parallel within a batch and
//     adoptions apply between batches. Fully synchronous play (one
//     batch) lets every node re-wire against the same view into a graph
//     nobody evaluated — the classic simultaneous-move collapse.
//
// The pool rows include each node's own current out-links (removing
// them per node would mean per-node SSSP — the cost this engine
// avoids). The contamination is paths that leave a node and return
// through it, relevant only when the node lies on the shortest path
// between its own facility and destination — an O(diameter/n) fraction
// of pairs, absorbed by the BR(ε) threshold.
//
// Memory is O(|pool|·n + n·k): pool rows dominate (~110 MB at n=10⁴,
// |pool|≈1400); there is no n×n anything.

// ScaleNet is the minimal underlay view of the scale engine: pairwise
// delays, computable on demand (no n² storage). They must be static:
// the facility directory prices an arc once, when the change that makes
// it is staged, and never re-prices it.
type ScaleNet interface {
	N() int
	Delay(i, j int) float64
}

// nearBound is a ScaleNet that proves Delay(i, j) ≥ c, for i ≠ j, cheaper
// than Delay: by Cos(i, j) ≤ CosThreshold(c), or by DelayAtLeast
// (underlay.Lite's, their contracts). The nearest-member scans of a
// proposal skip what it proves too far; a net without it is priced in
// full.
type nearBound interface {
	Cos(i, j int) float64
	CosThreshold(c float64) float64
	DelayAtLeast(i, j int, c float64) bool
}

// ScaleConfig parameterizes one large-scale run.
type ScaleConfig struct {
	// N is the overlay size; K the per-node degree budget.
	N, K int
	// Seed drives all randomness (sampling, tie-breaking, bootstrap).
	Seed int64
	// Sample selects the destination-sampling strategy and size, e.g.
	// {Demand, 500} for "demand:500".
	Sample sampling.Spec
	// Epsilon is the BR(ε) adoption threshold on the estimated cost.
	// Zero selects the sampled-mode default of 0.05: with a noisy
	// objective a strictly-positive threshold is what makes convergence
	// well-defined.
	Epsilon float64
	// MaxEpochs bounds the run (default 8); the run stops earlier once
	// converged.
	MaxEpochs int
	// ConvergedFrac declares convergence when the fraction of nodes
	// re-wiring in an epoch drops to or below it (default 0.01).
	ConvergedFrac float64
	// Workers is the parallelism of the proposal and pool-row phases
	// (0 = NumCPU). Results are byte-identical for any value.
	Workers int
	// StaggerBatches splits each epoch into this many staggered
	// adoption sub-rounds (default 32). 1 means fully synchronous play —
	// unstable, see the package comment; n means the paper's
	// one-at-a-time stagger, serial.
	StaggerBatches int
	// DemandAt, when non-nil, supplies the epoch's preference weights
	// p_ij = DemandAt(epoch)(i, j) driving both the objective and the
	// demand-proportional sampler (a nil function means uniform); a
	// static demand returns the same function every epoch, the scenario
	// harness's demand shifts a different one. The engine re-draws every
	// node's destination sample against the epoch's weights, so a shift
	// propagates into the dynamics within one epoch. The returned
	// function must be safe for concurrent calls.
	DemandAt func(epoch int) func(i, j int) float64
	// Churn, when non-nil, drives dynamic membership: event times are
	// in epoch units, fractional times land between stagger sub-rounds.
	// Joins bootstrap a wiring over the alive roster and enter the
	// facility directory; leaves orphan their in-links immediately
	// (heartbeat semantics), putting the victims on the rescue path.
	// Membership events repair the directory incrementally — see the
	// invariant note above runScaleChurn.
	Churn *churn.Schedule
	// Net overrides the default constant-memory geographic underlay
	// (underlay.NewLite(N, Seed+1)).
	Net ScaleNet
	// OnPublish, when non-nil, is the data-plane publication hook, the
	// only one: it is called serially after the bootstrap, after every
	// stagger sub-round's serial fold and after each epoch's final churn
	// drain, with the set of rows that changed since the previous call,
	// so a publisher can delta-patch its snapshot (plane.Snapshot.Patch)
	// — or compile in full once per epoch by keeping only the
	// publications whose EpochFinal() is true.
	//
	// Ordering contract, pinned by TestScalePublicationOrdering: the
	// FIRST call is the bootstrap publication {Epoch: -1, SubRound: -1,
	// Full: true}, delivered on the engine goroutine before any churn
	// event or proposal is played, so the data plane can answer from
	// epoch 0's first sub-round onward. Every later call is a delta that
	// applies on top of the state of the previous call, in strict call
	// order on the same goroutine: the first sub-round delta (which also
	// carries any churn drained before epoch 0's first batch) applies on
	// top of the bootstrap snapshot and can never race or precede it;
	// each epoch ends with its SubRound == Rounds publication. Subscribers
	// must finish deriving their snapshot before returning; the Changed
	// slice and the wiring/active arrays are engine-owned scratch, not
	// to be retained. The hook runs outside the parallel proposal phase
	// and must stay deterministic: the engine's byte-identical
	// any-worker-count contract extends to the publication sequence.
	OnPublish func(pub Publication)
	// OnPhase, when non-nil, receives one timed PhaseEvent per engine
	// phase — churn drains, directory rebuilds, each sub-round's
	// propose/adopt split, and every publication — the observability
	// feed for phase-level tracing and /metrics. It is called serially
	// on the engine goroutine, outside the parallel proposal phase.
	// Durations are wall-clock and for diagnosis only: the hook never
	// feeds back into the dynamics, so the engine's byte-identical
	// any-worker-count result contract is unaffected, and when the hook
	// is nil the engine takes no extra clock readings at all.
	OnPhase func(ev PhaseEvent)

	// poolTarget caps the facility directory at min(2·Sample.M + 256, N):
	// the pool holds every currently wired target (trimmed by in-degree
	// if over the cap) plus explorers. poolExplore = max(poolTarget/8, 8)
	// is the number of rotating explorer slots per epoch: nodes outside
	// the wired set get their turn in the directory so the dynamics can
	// discover them. candSample = max(64, 2K) is the per-node candidate
	// sample drawn from the pool each re-wiring (at most the pool size):
	// half the nearest members by direct cost, half uniform. All three
	// are derived by withDefaults.
	poolTarget, poolExplore, candSample int
	// probe is the tests' window onto the directory-row reuse; nil
	// everywhere else.
	probe *scaleProbe
}

// HeadlineRecipe is the tuned configuration of every headline scale run
// where the caller does not choose: degree budget 8 (4 below n = 1000)
// and a demand-weighted sample of n/20 destinations clamped to
// [k+2, 500] — 500 being the "demand:500 at n = 10000" configuration. A
// positive k is kept and only the sample derived from it.
func HeadlineRecipe(n, k int) (int, sampling.Spec) {
	if k <= 0 {
		k = 8
		if n < 1000 {
			k = 4
		}
	}
	m := n / 20
	if m < k+2 {
		m = k + 2
	}
	if m > 500 {
		m = 500
	}
	return k, sampling.Spec{Strategy: sampling.Demand, M: m}
}

// scaleProbe lets the package's tests check and count the two places the
// engine reads a shortest-path row the directory already holds instead
// of computing it: a member proposer's live row, and a surviving
// member's row at the epoch rebuild.
type scaleProbe struct {
	// checkProposal and checkDirectory are the checkRows probe, which
	// only the tests set (scale_probe_test.go); each fails the run on the
	// first difference it finds. checkProposal re-derives, after the
	// block fill, a member proposer's live row with the seeded Dijkstra
	// and the solver block through core's own fill. checkDirectory
	// compares the directory graph with the wiring after every rebuild,
	// adopt batch and churn drain that applied an event.
	checkProposal  func(w *scaleWorker, e *scaleEngine, i int, rowI []float64, ds *sampling.DestSample, demand func(i, j int) float64, cost, pref []float64) error
	checkDirectory func(e *scaleEngine, phase string, t float64) error
	// checkKeep makes a proposer whose wiring the keep bound certifies
	// solve as well, and fails the run if the gate would have adopted
	// the solved wiring; certified counts the certified proposals,
	// checked or not.
	checkKeep bool
	certified atomic.Int64
	// seeded counts the seeded Dijkstras run for proposers that hold no
	// directory row (checkProposal's extra runs are not counted).
	seeded atomic.Int64
	// rebuilds records each directory rebuild, in epoch order.
	rebuilds []probeRebuild
	// resets is the directory's DynamicRows.Resets at the end of the run:
	// 1, the seed, when every change was staged into it.
	resets int
}

// probeRebuild is one directory rebuild: the membership it settled on
// and the fresh Dijkstra rows it had to build.
type probeRebuild struct {
	ids  []int
	rows int
}

// phaseTrace delivers timed PhaseEvents to ScaleConfig.OnPhase. A nil
// trace takes no clock readings: start returns the zero time and emit
// does nothing.
type phaseTrace func(ev PhaseEvent)

// start reads the clock a phase is timed from.
func (tr phaseTrace) start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// emit sets ev's duration to the time since t0 and delivers it.
func (tr phaseTrace) emit(t0 time.Time, ev PhaseEvent) {
	if tr != nil {
		ev.NS = time.Since(t0).Nanoseconds()
		tr(ev)
	}
}

// PhaseEvent is one timed engine phase, emitted through
// ScaleConfig.OnPhase. The JSON tags are the trace-stream (JSONL)
// schema egoist-bench -trace writes; events are diagnostic output and
// excluded from every determinism comparison.
type PhaseEvent struct {
	// Epoch is the epoch being played (-1 covers bootstrap-time work).
	Epoch int `json:"epoch"`
	// Sub is the stagger sub-round within the epoch, -1 for
	// epoch-level phases (the directory rebuild, the epoch summary).
	// The churn drain before batch b carries Sub == b, the one before
	// batch 0 included; the epoch-final churn drain and publication
	// carry Sub == Rounds.
	Sub int `json:"sub"`
	// Phase is one of churn | rebuild | propose | adopt | publish |
	// epoch ("epoch" is the whole-epoch summary event).
	Phase string `json:"phase"`
	// NS is the phase's wall-clock duration in nanoseconds.
	NS int64 `json:"ns"`
	// Rewires is the re-wirings applied (adopt: this sub-round; epoch:
	// the epoch total).
	Rewires int `json:"rewires,omitempty"`
	// Resets / Applies are the directory's cumulative logical rebuilds
	// and incremental applies (rebuild events); Rows is the fresh
	// Dijkstra rows this rebuild built — every member's on the first,
	// only the new members' once rows carry across the epoch boundary.
	Resets  int `json:"resets,omitempty"`
	Applies int `json:"applies,omitempty"`
	Rows    int `json:"rows_built,omitempty"`
	// Alive is the live membership after the phase (churn and epoch
	// events).
	Alive int `json:"alive,omitempty"`
	// Joins / Leaves are the epoch's cumulative membership events so
	// far (churn and epoch events).
	Joins  int `json:"joins,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	// Kept / Solved split the sub-round's acting proposers (propose
	// events): Kept kept their wiring on the bound alone, Solved ran the
	// sampled best response.
	Kept   int `json:"kept,omitempty"`
	Solved int `json:"solved,omitempty"`
}

func (c *ScaleConfig) withDefaults() (ScaleConfig, error) {
	out := *c
	if out.N < 4 {
		return out, fmt.Errorf("sim: scale N = %d, need >= 4", out.N)
	}
	if out.K < 1 || out.K >= out.N {
		return out, fmt.Errorf("sim: scale K = %d, need 1 <= K < N", out.K)
	}
	if out.Sample.M < 1 {
		return out, fmt.Errorf("sim: sample spec %v has no size", out.Sample)
	}
	if out.Sample.M < out.K+1 {
		return out, fmt.Errorf("sim: sample size %d below K+1 = %d", out.Sample.M, out.K+1)
	}
	if out.Epsilon == 0 {
		out.Epsilon = 0.05
	}
	if out.MaxEpochs <= 0 {
		out.MaxEpochs = 8
	}
	if out.ConvergedFrac == 0 {
		out.ConvergedFrac = 0.01
	}
	if out.StaggerBatches <= 0 {
		// Batch size ~n/B is the stability knob: sub-rounds of about 3%
		// of the overlay kept the dynamics convergent across every size
		// tested, while coarser play (≥6%) let correlated re-wirings
		// collapse the overlay. Incremental row repair makes the
		// per-sub-round cost proportional to churn, so fine staggering
		// is affordable.
		out.StaggerBatches = out.N / 32
		if out.StaggerBatches < 16 {
			out.StaggerBatches = 16
		}
	}
	if out.StaggerBatches > out.N {
		out.StaggerBatches = out.N
	}
	out.poolTarget = min(2*out.Sample.M+256, out.N)
	out.poolExplore = max(out.poolTarget/8, 8)
	out.candSample = max(64, 2*out.K)
	if out.Net == nil {
		lite, err := underlay.NewLite(out.N, out.Seed+1)
		if err != nil {
			return out, err
		}
		out.Net = lite
	}
	if out.Net.N() != out.N {
		return out, fmt.Errorf("sim: net has %d nodes, config %d", out.Net.N(), out.N)
	}
	if out.Churn != nil {
		if out.Churn.N != out.N {
			return out, fmt.Errorf("sim: churn schedule has %d nodes, config %d", out.Churn.N, out.N)
		}
		if err := out.Churn.Validate(); err != nil {
			return out, err
		}
		alive := 0
		for _, on := range out.Churn.InitialOn {
			if on {
				alive++
			}
		}
		if alive < out.K+2 {
			return out, fmt.Errorf("sim: only %d nodes initially alive, need >= K+2 = %d", alive, out.K+2)
		}
	}
	return out, nil
}

// ScaleEpoch is one epoch's aggregate measurements.
type ScaleEpoch struct {
	// Rewires counts nodes that adopted a new wiring this epoch.
	Rewires int
	// MeanEstCost is the mean over nodes of the per-node HT-estimated
	// full-roster cost (of the wiring held when the node last acted).
	MeanEstCost float64
	// MeanBand is the mean 95% half-width of those estimates — the
	// accuracy the sample size buys.
	MeanBand float64
	// PoolSize is the facility directory size this epoch.
	PoolSize int
	// Joins and Leaves count the membership events applied during this
	// epoch; Alive is the alive node count at the epoch's end. Acted
	// counts the nodes that computed a proposal — zero when a drained
	// overlay sat the epoch out, in which case MeanEstCost/MeanBand
	// are meaningless zeros.
	Joins, Leaves int
	Alive         int
	Acted         int
	// WallNS is the epoch's wall-clock nanoseconds (pool refresh +
	// proposals + adoption). Excluded from determinism comparisons.
	WallNS int64
}

// ScaleResult is the outcome of one large-scale run.
type ScaleResult struct {
	// Epochs run; Converged reports whether the rewire fraction reached
	// ConvergedFrac before MaxEpochs.
	Epochs    int
	Converged bool
	// PerEpoch holds each epoch's measurements.
	PerEpoch []ScaleEpoch
	// Wiring is the final overlay wiring (nil rows for departed nodes).
	Wiring [][]int
	// MeanSampleSize is the mean realized destination-sample size (the
	// Demand strategy's Poisson draw makes it random).
	MeanSampleSize float64
	// Joins and Leaves total the membership events applied over the run.
	Joins, Leaves int
	// DirectoryResets counts logical facility-directory rebuilds — the
	// per-epoch membership refresh, one per epoch by design, whether it
	// recomputed every row or only the new members' — and
	// DirectoryApplies its incremental repairs. The churn tests pin the
	// maintenance invariant on them: membership events must never
	// trigger a rebuild.
	DirectoryResets, DirectoryApplies int
}

// scaleWorker is one worker's reusable per-node state.
type scaleWorker struct {
	sc      core.Scratch
	sp      graph.SPScratch
	ds      sampling.DestSample // the proposal's destination sample
	prefBuf []float64           // roster-length demand row (Demand strategy)
	dirBuf  []float64           // roster-length direct-cost row (Stratified)
	rowI    []float64           // live SSSP row of a proposer outside the directory
	seeds   []graph.Arc         // its current wiring as seed arcs
	lid     []int32             // global id -> candidate position, -1 when absent
	rng     policyStream

	gcands []int       // global ids of the candidates, in position order
	grows  [][]float64 // pool row per candidate (nil: off-pool)
	direct []float64   // direct delay per candidate
	own    []int       // per candidate, its position in the sample, or -1
	rowD   []float64   // the live row at the sampled destinations
	near   []nearItem
	cur    []int
	perm   []int
}

// policyRNG derives the deterministic per-(epoch,node) policy randomness.
// Seeding per node rather than sharing one stream is what makes stochastic
// choices independent of both the worker count and the order in which the
// pool happens to schedule nodes.
func policyRNG(seed int64, epoch, node int) *rand.Rand {
	return rand.New(rand.NewSource(policySeed(seed, epoch, node)))
}

// policySeed is the source seed of policyRNG's (seed, epoch, node) stream.
func policySeed(seed int64, epoch, node int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x = splitmix64(x + uint64(int64(epoch))*0xbf58476d1ce4e5b9)
	x = splitmix64(x + uint64(int64(node))*0x94d049bb133111eb)
	return int64(x)
}

// policyStream is a reusable policyRNG: at re-seeds one generator to the
// (seed, epoch, node) stream instead of allocating one per proposal. The
// source seeds itself exactly as NewSource does, so the draws are
// policyRNG's.
type policyStream struct{ r *rand.Rand }

func (p *policyStream) at(seed int64, epoch, node int) *rand.Rand {
	if p.r == nil {
		p.r = rand.New(&lazySource{Source64: rand.NewSource(0).(rand.Source64)})
	}
	p.r.Seed(policySeed(seed, epoch, node))
	return p.r
}

// lazySource records its seed and seeds the source on the first draw
// after it: a proposal that draws nothing — a full-engine slot under
// any policy but k-Random — skips Seed's fill of the 607-word state.
type lazySource struct {
	rand.Source64
	seed   int64
	seeded bool
}

func (s *lazySource) Seed(seed int64) { s.seed, s.seeded = seed, false }
func (s *lazySource) Int63() int64    { s.ready(); return s.Source64.Int63() }
func (s *lazySource) Uint64() uint64  { s.ready(); return s.Source64.Uint64() }
func (s *lazySource) ready() {
	if !s.seeded {
		s.Source64.Seed(s.seed)
		s.seeded = true
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// scaleProposal is one node's phase output.
type scaleProposal struct {
	set     []int // nil: keep current wiring
	acted   bool  // false: node was inactive (or skipped) this epoch
	kept    bool  // acted, and kept its wiring without solving
	estCost float64
	estBand float64
	samples int
}

// scaleEngine is the mutable run state shared by the epoch loop and the
// churn-event machinery.
type scaleEngine struct {
	c      *ScaleConfig
	wiring [][]int
	pool   *scalePool
	active []bool
	near   nearBound // Net's delay bound, or nil: resolved once per run
	// aliveIDs is the sorted alive roster (every id when Churn is nil).
	// Rebuilt after every event batch; proposals read it concurrently in
	// between.
	aliveIDs    []int
	recentJoins []int
	churn       timeline
	evIdx       int                 // monotonically counts applied events (join-RNG derivation)
	probe       sampling.DestSample // a join's bootstrap probe
	joins       int                 // per-epoch counters, reset by the epoch loop
	leaves      int

	// Pending-publication changed set (nil pubMark: no OnPublish
	// subscriber, zero cost). pubChanged accumulates marks between
	// publish calls; pubMark dedups them.
	pubMark    []bool
	pubChanged []int
}

// The propose/apply split — the scale engine's determinism contract.
//
// Each stagger sub-round is two phases. proposeBatch is the parallel
// half: every node of the batch computes its sampled best response
// concurrently against a strictly read-only view of the run state —
// the wiring, the facility directory (graph + rows, constant between
// DynamicRows mutations), the alive roster and the epoch's demand
// function. Each job draws its randomness from its own policyRNG(Seed,
// epoch, i) stream and writes only props[i] and its per-worker scratch,
// so no observable value depends on which worker ran a job or in what
// order jobs finished. adoptBatch is the serial half: it folds the
// batch's proposals into the wiring in ascending node-id order (the
// batch partition is fixed: node i acts in sub-round i mod B) and then
// repairs the directory rows, so the state the NEXT sub-round reads is
// a pure function of (config, seed) — never of scheduling. Churn
// events land between sub-rounds, in the same serial section.
//
// Consequence, pinned by TestScaleDeterministicAcrossWorkers,
// TestScaleResultJSONByteIdenticalAcrossWorkers, the churn twin-run
// suites and the ci/scenarios engine-equivalence suite: ScaleResult is
// byte-identical (WallNS aside) for any Workers value. Anything added
// to the proposal phase must preserve both halves of the contract: no
// writes to shared state, no RNG stream shared across jobs.

// proposeBatch computes one sub-round's proposals in parallel across
// the workers, each on its own scratch slot of ws. props slots of
// inactive nodes are zeroed so a stale proposal from an earlier epoch
// can never be adopted on their behalf.
func (e *scaleEngine) proposeBatch(ws []*scaleWorker, batch []int, epoch int, demand func(i, j int) float64, props []scaleProposal) error {
	c := e.c
	return par.DoErr(len(batch), len(ws), func(worker, bi int) error {
		i := batch[bi]
		if !e.active[i] {
			props[i] = scaleProposal{}
			return nil
		}
		w := ws[worker]
		if w == nil {
			w = &scaleWorker{}
			ws[worker] = w
		}
		p, err := c.proposeScale(w, e, epoch, i, demand)
		if err != nil {
			return err
		}
		props[i] = p
		return nil
	})
}

// adoptBatch serially folds one sub-round's proposals into the wiring
// in ascending node-id order — the coarse stagger — then repairs the
// directory rows incrementally. It accumulates the epoch measurements
// into ep and returns the batch's acted-node and sample counts.
func (e *scaleEngine) adoptBatch(batch []int, props []scaleProposal, ep *ScaleEpoch) (acted, samples int) {
	for _, i := range batch {
		if !props[i].acted {
			continue
		}
		acted++
		if set := props[i].set; set != nil {
			if !slices.Equal(e.wiring[i], set) {
				ep.Rewires++
				e.pool.stage(i, set)
				e.markChanged(i)
			}
			e.wiring[i] = set
		}
		ep.MeanEstCost += props[i].estCost
		ep.MeanBand += props[i].estBand
		samples += props[i].samples
	}
	e.pool.commit()
	return acted, samples
}

// rebuildAlive refreshes the sorted alive roster after an event batch.
func (e *scaleEngine) rebuildAlive() {
	e.aliveIDs = e.aliveIDs[:0]
	for v, on := range e.active {
		if on {
			e.aliveIDs = append(e.aliveIDs, v)
		}
	}
}

// runScaleChurn applies every membership event scheduled before time t
// (in epoch units).
//
// Directory-repair-on-leave invariant: membership events NEVER trigger
// a directory rebuild — the per-epoch rebuild is the only caller of
// DynamicRows.Rebase (pinned by TestScaleChurnIncrementalDirectory).
// A leave drops the departed node's row (O(1) swap), clears its
// out-arcs and rewrites each orphaned in-neighbor's arc set through
// one commit, whose repair cost is proportional to the affected
// shortest-path subtrees; a join costs one commit for its bootstrap
// arcs plus one Dijkstra row (AddSource).
func (e *scaleEngine) runScaleChurn(t float64) error {
	applied := e.evIdx
	err := e.churn.until(t, e.active, func(ev churn.Event) error {
		e.evIdx++
		if ev.On {
			e.join(ev.Node)
		} else {
			e.leave(ev.Node)
		}
		return nil
	})
	if err != nil || e.evIdx == applied {
		return err
	}
	e.rebuildAlive()
	return e.probeDirectory("churn drain", t)
}

// probeDirectory runs the checkRows probe's directory check, when a test
// set one, at time t after the named phase.
func (e *scaleEngine) probeDirectory(phase string, t float64) error {
	if p := e.c.probe; p != nil && p.checkDirectory != nil {
		return p.checkDirectory(e, phase, t)
	}
	return nil
}

// join turns v on: bootstrap wiring over the alive roster (same recipe
// as the epoch -1 bootstrap, from a per-event deterministic RNG) and a
// seat in the facility directory.
func (e *scaleEngine) join(v int) {
	c := e.c
	e.active[v] = true
	e.joins++
	e.markChanged(v)
	// The alive roster does not include v yet; that is exactly the
	// population a newcomer may wire. It is as of the start of this
	// drain, though — a node that left earlier in the same drain is
	// still listed — so the bootstrap is told who is alive right now.
	// A joiner into an empty overlay waits unwired for company.
	var w []int
	if len(e.aliveIDs) > 0 {
		rng := policyRNG(c.Seed, -2-e.evIdx, v)
		w = c.bootstrapWiring(&e.probe, rng, v, e.aliveIDs, e.active)
	}
	e.wiring[v] = w
	e.recentJoins = append(e.recentJoins, v)
	e.pool.stage(v, w)
	e.pool.commit()
	e.pool.dir.AddSource(v)
}

// leave turns v off with heartbeat semantics: every in-neighbor drops
// its link to v immediately, and a node whose last link dies re-wires
// unconditionally at its next sub-round slot — the rescue path. The
// directory's in-arcs of v name the victims.
func (e *scaleEngine) leave(v int) {
	e.active[v] = false
	e.leaves++
	e.markChanged(v)
	// Drop the dead member's row first so it is not repaired, then fold
	// the orphaned re-wirings and v's cleared out-set into the surviving
	// rows incrementally.
	e.pool.dir.RemoveSource(v)
	for _, a := range e.pool.dir.In(v) {
		u := a.To
		e.markChanged(u)
		e.wiring[u] = slices.DeleteFunc(e.wiring[u], func(tgt int) bool { return tgt == v })
		e.pool.stage(u, e.wiring[u])
	}
	e.wiring[v] = nil
	e.pool.stage(v, nil)
	e.pool.commit()
}

// bootstrapWiring is the shared join recipe: wire the closest member of
// a small uniform probe plus K-1 uniform random picks over the alive
// roster. The random majority keeps the bootstrap overlay strongly
// connected; see the bootstrap note in RunScale.
// active, when non-nil, vetoes roster entries that have since left:
// a vetoed draw is skipped, not replaced, so the RNG stream — and the
// wiring — is what it always was unless a departed node came up. The
// probe is drawn into the caller's probe sample, so only the wiring
// returned is allocated.
func (c *ScaleConfig) bootstrapWiring(probe *sampling.DestSample, rng *rand.Rand, i int, aliveIDs []int, active []bool) []int {
	probeSpec := sampling.Spec{Strategy: sampling.Uniform, M: 4 * c.K}
	if err := probeSpec.DrawInto(probe, rng, i, aliveIDs, nil, nil); err != nil {
		// Unreachable: populations are validated non-empty before any
		// bootstrap (withDefaults and the K+2 churn floor).
		panic(err)
	}
	gone := func(v int) bool { return active != nil && !active[v] }
	w := make([]int, 0, c.K)
	closest := -1
	for _, j := range probe.Dests {
		if !gone(j) && (closest < 0 || c.Net.Delay(i, j) < c.Net.Delay(i, closest)) {
			closest = j
		}
	}
	if closest >= 0 {
		w = append(w, closest)
	}
	// The alive population may be smaller than K+1; wire what exists
	// (counting stops at K: a full-roster bootstrap must not scan the
	// roster once per node).
	limit := 0
	for _, v := range aliveIDs {
		if v != i && !gone(v) {
			if limit++; limit == c.K {
				break
			}
		}
	}
	for len(w) < c.K && len(w) < limit {
		if j := aliveIDs[rng.Intn(len(aliveIDs))]; j != i && !gone(j) && !slices.Contains(w, j) {
			w = append(w, j)
		}
	}
	if len(w) == 0 {
		return nil // no company: unwired, as ever
	}
	sort.Ints(w)
	return w
}

// RunScale executes one large-scale sampled simulation.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := c.N
	workers := par.Workers(c.Workers)
	ws := make([]*scaleWorker, workers) // one scratch slot per worker
	eng := &scaleEngine{
		c:      &c,
		wiring: make([][]int, n),
		active: make([]bool, n),
	}
	eng.near, _ = c.Net.(nearBound)
	for i := range eng.active {
		eng.active[i] = true
	}
	if c.Churn != nil {
		copy(eng.active, c.Churn.InitialOn)
		eng.churn.events = c.Churn.Events
	}
	eng.rebuildAlive()
	if c.OnPublish != nil {
		eng.pubMark = make([]bool, n)
	}

	// Bootstrap epoch (-1): every initially-alive node wires its closest
	// member of a small uniform sample plus K-1 uniform random nodes
	// from the (alive) roster. The random majority is what makes the
	// bootstrap overlay strongly connected with high probability — an
	// all-closest bootstrap shatters into geographic islands the myopic
	// sampled dynamics then have to stitch back together — and
	// full-roster randomness gives (almost) every node an initial
	// in-link, which the retention pricing below needs to keep it
	// reachable.
	probes := make([]sampling.DestSample, workers)
	err = par.DoErr(n, c.Workers, func(worker, i int) error {
		if !eng.active[i] {
			return nil
		}
		rng := policyRNG(c.Seed, -1, i)
		eng.wiring[i] = c.bootstrapWiring(&probes[worker], rng, i, eng.aliveIDs, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	eng.pool = newScalePool(&c, eng.wiring, workers)
	trace := phaseTrace(c.OnPhase)

	if c.OnPublish != nil {
		// The bootstrap publication — see the ordering contract at the
		// OnPublish field: this Full publication is strictly first, and
		// every sub-round delta below applies on top of it.
		t0 := trace.start()
		c.OnPublish(Publication{Epoch: -1, SubRound: -1, Rounds: c.StaggerBatches, Full: true, Wiring: eng.wiring, Active: eng.active})
		trace.emit(t0, PhaseEvent{Epoch: -1, Sub: -1, Phase: "publish", Alive: len(eng.aliveIDs)})
	}

	// Fixed batch partition: node i acts in sub-round i mod B.
	batches := make([][]int, c.StaggerBatches)
	for i := 0; i < n; i++ {
		b := i % c.StaggerBatches
		batches[b] = append(batches[b], i)
	}

	res := &ScaleResult{}
	props := make([]scaleProposal, n)
	for epoch := 0; epoch < c.MaxEpochs; epoch++ {
		start := time.Now()
		eng.joins, eng.leaves = 0, 0
		// Membership is fixed for the epoch (one Dijkstra per member the
		// rebuild brings in; the others keep their rows); the sub-round
		// loop below keeps the rows exact against the live wiring via
		// incremental repair. The stagger only
		// stabilizes the dynamics if later actors see earlier actors'
		// moves: an epoch-frozen directory degenerates into synchronous
		// play — every node re-wires trusting distances that its peers'
		// simultaneous re-wirings have already invalidated, and the
		// overlay collapses into a state nobody evaluated.
		t0 := trace.start()
		built := eng.pool.dir.FullRows()
		eng.pool.rebuild(&c, eng, epoch, workers)
		built = eng.pool.dir.FullRows() - built
		trace.emit(t0, PhaseEvent{Epoch: epoch, Sub: -1, Phase: "rebuild",
			Resets: eng.pool.resets, Applies: eng.pool.dir.Applies(), Rows: built})
		if c.probe != nil {
			c.probe.rebuilds = append(c.probe.rebuilds, probeRebuild{ids: slices.Clone(eng.pool.dir.Sources()), rows: built})
		}
		if err := eng.probeDirectory("rebuild", float64(epoch)); err != nil {
			return nil, err
		}
		var demand func(i, j int) float64
		if c.DemandAt != nil {
			demand = c.DemandAt(epoch)
		}
		ep := ScaleEpoch{PoolSize: len(eng.pool.dir.Sources())}
		samples := 0
		acted := 0
		err := stagger(epoch, batches, func(t float64, sub int) error {
			// Membership events land between sub-rounds and repair the
			// live directory incrementally.
			t0 := trace.start()
			if err := eng.runScaleChurn(t); err != nil {
				return err
			}
			trace.emit(t0, PhaseEvent{Epoch: epoch, Sub: sub, Phase: "churn",
				Alive: len(eng.aliveIDs), Joins: eng.joins, Leaves: eng.leaves})
			return nil
		}, func(b int, batch []int) error {
			// A drained overlay (fewer alive nodes than a wiring needs)
			// sits the proposal phase out until joins replenish it.
			if len(eng.aliveIDs) < c.K+2 {
				for _, i := range batch {
					props[i].acted = false
				}
				return nil
			}
			t0 := trace.start()
			if err := eng.proposeBatch(ws, batch, epoch, demand, props); err != nil {
				return err
			}
			ev := PhaseEvent{Epoch: epoch, Sub: b, Phase: "propose"}
			for _, i := range batch {
				if props[i].kept {
					ev.Kept++
				} else if props[i].acted {
					ev.Solved++
				}
			}
			trace.emit(t0, ev)
			t0 = trace.start()
			before := ep.Rewires
			a, s := eng.adoptBatch(batch, props, &ep)
			acted += a
			samples += s
			if err := eng.probeDirectory("adopt", float64(epoch)+float64(b)/float64(len(batches))); err != nil {
				return err
			}
			trace.emit(t0, PhaseEvent{Epoch: epoch, Sub: b, Phase: "adopt",
				Rewires: ep.Rewires - before})
			return nil
		}, func(sub int) {
			// Sub-round publication: the batch's adoptions plus any churn
			// drained since the previous publication (idle sub-rounds
			// publish an empty delta so subscribers can pace on them).
			// The epoch-final one (EpochFinal) carries the epoch's last
			// drain.
			t0 := trace.start()
			eng.publish(epoch, sub, len(batches))
			trace.emit(t0, PhaseEvent{Epoch: epoch, Sub: sub, Phase: "publish"})
		})
		if err != nil {
			return nil, err
		}
		if acted > 0 {
			ep.MeanEstCost /= float64(acted)
			ep.MeanBand /= float64(acted)
			res.MeanSampleSize += float64(samples) / float64(acted)
		}
		ep.Acted = acted
		ep.Joins, ep.Leaves = eng.joins, eng.leaves
		ep.Alive = len(eng.aliveIDs)
		ep.WallNS = time.Since(start).Nanoseconds()
		trace.emit(start, PhaseEvent{Epoch: epoch, Sub: -1, Phase: "epoch",
			Rewires: ep.Rewires, Alive: ep.Alive, Joins: ep.Joins, Leaves: ep.Leaves})
		res.PerEpoch = append(res.PerEpoch, ep)
		res.Joins += eng.joins
		res.Leaves += eng.leaves
		res.Epochs++
		// Convergence must not stop the run before the schedule has
		// played out.
		if float64(ep.Rewires) <= c.ConvergedFrac*float64(len(eng.aliveIDs)) && !eng.churn.pending(float64(c.MaxEpochs)) {
			res.Converged = true
			break
		}
	}
	if res.Epochs > 0 {
		res.MeanSampleSize /= float64(res.Epochs)
	}
	res.Wiring = eng.wiring
	res.DirectoryResets = eng.pool.resets
	res.DirectoryApplies = eng.pool.dir.Applies()
	if c.probe != nil {
		c.probe.resets = eng.pool.dir.Resets()
	}
	return res, nil
}

// nearItem is a member of a nearest selection: its delay from the
// proposer, its id and its position in the scanned list.
type nearItem struct {
	d     float64
	id, x int
}

// cmpNear orders nearItems by delay, ids breaking ties: a strict total
// order, so the k first are the same however they are selected.
func cmpNear(a, b nearItem) int {
	switch {
	case a.d < b.d:
		return -1
	case a.d > b.d:
		return 1
	}
	return a.id - b.id
}

// siftNear restores the max-heap order of h under cmpNear below x.
func siftNear(h []nearItem, x int) {
	for {
		top := x
		for c := 2*x + 1; c <= 2*x+2 && c < len(h); c++ {
			if cmpNear(h[top], h[c]) < 0 {
				top = c
			}
		}
		if top == x {
			return
		}
		h[x], h[top] = h[top], h[x]
		x = top
	}
}

// nearest returns the k members v of ids with the least delay(i, v),
// leaving out i and every v with taken[v] ≥ 0 (a nil taken leaves none
// out), in cmpNear's order: a bounded max-heap takes in every member that
// beats its root, then only the heap is sorted. A non-nil bound must
// bound delay from below, as it bounds Net.Delay: once the heap holds k,
// a member it proves strictly farther than the root — delay ≥ c with c
// the next float above the root's, since equal delays break by id — is
// skipped, first by CosThreshold(c), computed again only when the root's
// delay changes, then by DelayAtLeast. Only the rest cost a delay call.
func (w *scaleWorker) nearest(delay func(i, j int) float64, bound nearBound, i int, ids []int, k int, taken []int32) []nearItem {
	h := w.near[:0]
	var c, tau float64
	kth := func() {
		if bound != nil {
			c = math.Nextafter(h[0].d, math.Inf(1))
			tau = bound.CosThreshold(c)
		}
	}
	for x, v := range ids {
		switch {
		case v == i || taken != nil && taken[v] >= 0 || k <= 0:
		case len(h) < k:
			h = append(h, nearItem{delay(i, v), v, x})
			if len(h) == k {
				for y := k/2 - 1; y >= 0; y-- {
					siftNear(h, y)
				}
				kth()
			}
		case bound != nil && (bound.Cos(i, v) <= tau || bound.DelayAtLeast(i, v, c)):
		default:
			if it := (nearItem{delay(i, v), v, x}); cmpNear(it, h[0]) < 0 {
				d := h[0].d
				h[0] = it
				siftNear(h, 0)
				if h[0].d != d {
					kth()
				}
			}
		}
	}
	slices.SortFunc(h, cmpNear)
	w.near = h
	return h
}

// seededRow computes node i's live routing row into the worker's own
// buffer: one Dijkstra over the directory's overlay graph g with i's
// out-arcs taken from its current wiring.
func (w *scaleWorker) seededRow(c *ScaleConfig, g *graph.Digraph, i int, wiring []int) []float64 {
	if w.rowI == nil {
		w.rowI = make([]float64, c.N)
	}
	w.seeds = w.seeds[:0]
	for _, v := range wiring {
		w.seeds = append(w.seeds, graph.Arc{To: v, W: c.Net.Delay(i, v)})
	}
	w.sp.DijkstraDistSeeded(g, i, w.seeds, w.rowI)
	return w.rowI
}

// proposeScale computes node i's sampled best response against the
// current wiring (stable for the duration of the node's batch) and the
// epoch's pool rows. demand is the epoch's demand function (may be nil
// for uniform preferences).
func (c *ScaleConfig) proposeScale(w *scaleWorker, eng *scaleEngine, epoch, i int, demand func(i, j int) float64) (scaleProposal, error) {
	n := c.N
	wiring, dir := eng.wiring, eng.pool.dir
	rng := w.rng.at(c.Seed, epoch, i)

	// Draw the destination sample with the strategy's required inputs.
	var pref, direct []float64
	if demand != nil {
		if w.prefBuf == nil {
			w.prefBuf = make([]float64, n)
		}
		for j := 0; j < n; j++ {
			if j != i {
				w.prefBuf[j] = demand(i, j)
			}
		}
		pref = w.prefBuf
	}
	if c.Sample.Strategy == sampling.Stratified {
		if w.dirBuf == nil {
			w.dirBuf = make([]float64, n)
		}
		for j := 0; j < n; j++ {
			if j != i {
				w.dirBuf[j] = c.Net.Delay(i, j)
			}
		}
		direct = w.dirBuf
	}
	// Under dynamic membership the draw runs over the alive roster, so
	// the sample — and with it the certainty-inclusion set and the HT
	// expansion — prices exactly the overlay that exists right now.
	ds := &w.ds
	if err := c.Sample.DrawInto(ds, rng, i, eng.aliveIDs, pref, direct); err != nil {
		return scaleProposal{}, err
	}
	// Current neighbors always enter the objective (certainty
	// inclusions, π=1): dropping the last link to a rarely-sampled
	// neighbor must always be priced — with the neighbor invisible in
	// most epochs' samples, last links decay and the orphan's rescuers
	// re-wire en masse next epoch, an oscillation that never settles.
	ds.MakeCertain(wiring[i])

	// The node's live routing row: i's exact shortest-path distances
	// over the live overlay. It prices the current wiring exactly (estCur
	// below) and anchors the contamination clamp on the pool rows. A
	// proposer that is itself a directory member already has that row in
	// the directory and reads it from there; only the others run a
	// Dijkstra, seeded with their current wiring. The two are the same
	// row bit for bit. Both are exact distances over the same graph —
	// the directory keeps its rows fresh-Dijkstra-exact, and Dijkstra
	// distances under non-negative weights are a unique fixed point that
	// no pop order changes — so they could differ only if its copy of i's
	// out-arcs differed from the seeds, and it never does when i
	// proposes: the directory graph is the live wiring with Net.Delay
	// weights, seeded from the bootstrap wiring, and every later change
	// to a wiring — an adoption, an orphaning leave, a join — is staged
	// into it and committed in the same serial section, before anybody
	// proposes again. A change to wiring[i] that bypassed the directory
	// would break this read, and nothing would heal it; the probe's
	// checkRows re-derives the row and compares the directory graph with
	// the wiring to catch it.
	rowI := dir.Row(i)
	if rowI == nil {
		rowI = w.seededRow(c, dir.Graph(), i, wiring[i])
		if c.probe != nil {
			c.probe.seeded.Add(1)
		}
	}
	if w.lid == nil {
		w.lid = make([]int32, n)
		for x := range w.lid {
			w.lid[x] = -1
		}
	}

	// Candidate set: the destinations a direct link could plausibly
	// serve — every dark sampled destination (unreachable right now:
	// only a direct link can rescue it), the nearest and, under demand
	// weights, the heaviest sampled destinations — plus a pool
	// refinement sample (half nearest by direct cost, half uniform) and
	// the current neighbors (so keeping a link is always an option the
	// solver can price). The remaining sampled destinations stay in the
	// objective, served through the candidates' distance rows; keeping
	// them out of the candidate set is what holds the per-node solver
	// at ~100 facilities instead of the full sample size. Pool members
	// carry exact distance rows; off-pool candidates are creditable as
	// direct links only, invisible as transit. Each candidate's direct
	// delay is priced once: by the nearest scan that found it, or here
	// (dv < 0).
	w.gcands, w.grows, w.direct = w.gcands[:0], w.grows[:0], w.direct[:0]
	addCand := func(v int, row []float64, dv float64) {
		// Departed nodes are never candidates: their rows are stale and
		// a link to them carries nothing.
		if v == i || w.lid[v] >= 0 || !eng.active[v] {
			return
		}
		if row == nil {
			row = dir.Row(v)
		}
		if dv < 0 {
			dv = c.Net.Delay(i, v)
		}
		w.lid[v] = int32(len(w.gcands))
		w.gcands = append(w.gcands, v)
		w.grows = append(w.grows, row)
		w.direct = append(w.direct, dv)
	}
	for _, j := range ds.Dests {
		if rowI[j] >= graph.Inf {
			addCand(j, nil, -1) // dark: rescue candidate
		}
	}
	const nearDests, heavyDests = 32, 16
	if len(ds.Dests) <= nearDests+heavyDests {
		for _, j := range ds.Dests {
			addCand(j, nil, -1)
		}
	} else {
		for _, it := range w.nearest(c.Net.Delay, eng.near, i, ds.Dests, nearDests, nil) {
			addCand(it.id, nil, it.d)
		}
		if demand != nil {
			heavy := func(i, j int) float64 { return -demand(i, j) }
			for _, it := range w.nearest(heavy, nil, i, ds.Dests, heavyDests, nil) {
				addCand(it.id, nil, -1)
			}
		}
	}
	ids := dir.Sources()
	P := len(ids)
	w.perm = intsN(w.perm, P)
	for x := range w.perm {
		w.perm[x] = x
	}
	rng.Shuffle(P, func(a, b int) { w.perm[a], w.perm[b] = w.perm[b], w.perm[a] })
	m := c.candSample
	if m > P {
		m = P
	}
	// Uniform half from the directory permutation...
	for _, x := range w.perm[:m/2] {
		addCand(ids[x], dir.RowAt(x), -1)
	}
	// ...nearest half: the closest members by direct cost (ids as
	// tie-break) among those not yet picked.
	for _, it := range w.nearest(c.Net.Delay, eng.near, i, ids, m-m/2, w.lid) {
		addCand(it.id, dir.RowAt(it.x), it.d)
	}
	for _, v := range wiring[i] {
		addCand(v, nil, -1)
	}

	// The solver's block: cost[a·D+di] is candidate a's direct delay plus
	// its pool row's distance to ds.Dests[di], with the self-path clamp —
	// an entry whose shortest path demonstrably runs through i
	// (d(a→i)+d(i→j) adds up to d(a→j)) is treated as unreachable via that
	// facility, because those are exactly the paths the node's own
	// re-wiring is about to invalidate. Trusting them is how an earlier
	// design collapsed the overlay: every node believed its destinations
	// stayed covered "through itself" while re-purposing the very links
	// that carried them. An off-pool candidate reaches only itself. Each
	// row is filled by the loop its kind needs — off-pool, a row that
	// cannot reach i (no path of it runs through i), a row that needs the
	// clamp — and the candidate's own entry, d = 0, is written last.
	C, D := len(w.gcands), len(ds.Dests)
	cost, destPref := w.sc.Block(C, ds)
	w.own = intsN(w.own, C)
	for a := range w.own {
		w.own[a] = -1
	}
	w.rowD = floatsN(w.rowD, D)
	for di, j := range ds.Dests {
		destPref[di] = 1
		if demand != nil {
			destPref[di] = demand(i, j)
		}
		w.rowD[di] = rowI[j]
		if a := w.lid[j]; a >= 0 {
			w.own[a] = di
		}
	}
	for a, grow := range w.grows {
		dv, row := w.direct[a], cost[a*D:(a+1)*D]
		switch {
		case grow == nil:
			for di := range row {
				row[di] = dv + graph.Inf
			}
		case !(grow[i] < graph.Inf):
			for di, j := range ds.Dests {
				row[di] = dv + grow[j]
			}
		default:
			toSelf, rowD := grow[i], w.rowD[:len(row)]
			for di, j := range ds.Dests {
				d := grow[j]
				if d < graph.Inf {
					if via := toSelf + rowD[di]; via <= d*(1+1e-12)+1e-9 && via >= d*(1-1e-12)-1e-9 {
						d = graph.Inf
					}
				}
				row[di] = dv + d
			}
		}
		if x := w.own[a]; x >= 0 {
			row[x] = dv + 0
		}
	}
	w.cur = w.cur[:0]
	for _, v := range wiring[i] {
		w.cur = append(w.cur, int(w.lid[v]))
	}
	var err error
	if c.probe != nil && c.probe.checkProposal != nil {
		err = c.probe.checkProposal(w, eng, i, rowI, ds, demand, cost, destPref)
	}

	// The current wiring is priced twice. For reporting: from the live
	// row — rowI[j] is the true routed cost to j with the links the node
	// holds right now. For the adoption test: under the same clamped-row
	// model and sample as the proposal (estCurM, from the solver's block),
	// so model mismatch and sampling noise cancel in the comparison.
	estCur := ds.Estimate(func(j int) float64 {
		d := rowI[j]
		if d >= graph.Inf {
			d = core.DisconnectedPenalty
		}
		var p float64 = 1
		if demand != nil {
			p = demand(i, j)
		}
		return p * d
	})

	// Keep without solving when the gate rejects a bound every proposal
	// meets (scaleAdopts states why that is safe). An empty wiring always
	// adopts, so it is never certified. checkKeep solves the certified
	// proposals as well, and the run fails if the gate would have adopted.
	var keep func(bound, estCurM sampling.Estimate) bool
	certified := false
	checkKeep := c.probe != nil && c.probe.checkKeep
	if len(wiring[i]) > 0 {
		keep = func(bound, estCurM sampling.Estimate) bool {
			anchor := scaleAnchor(estCurM, estCur)
			band := 0.0
			if ds.Strategy() == sampling.Demand {
				band = bound.Hi - bound.Total - 1e-9*anchor
			}
			certified = !scaleAdopts(c.Epsilon, anchor, bound.Total, band)
			return certified && !checkKeep
		}
	}
	var chosen []int
	var estNew, estCurM sampling.Estimate
	if err == nil {
		chosen, estNew, estCurM, err = w.sc.BestResponseBlock(c.K, w.cur, core.BROptions{}, keep)
	}
	// Reset the id map now that every lid consumer has run.
	for _, v := range w.gcands {
		w.lid[v] = -1
	}
	if err != nil {
		return scaleProposal{}, fmt.Errorf("sim: epoch %d node %d: %w", epoch, i, err)
	}
	kept := certified && !checkKeep
	anchor := scaleAnchor(estCurM, estCur)
	adopt := !kept && (len(wiring[i]) == 0 ||
		scaleAdopts(c.Epsilon, anchor, estNew.Total, estNew.Hi-estNew.Total))
	if certified && c.probe != nil {
		c.probe.certified.Add(1)
		if adopt {
			return scaleProposal{}, fmt.Errorf("sim: epoch %d node %d: kept by the bound, but the gate adopts the solved wiring at %v against %v", epoch, i, estNew.Total, anchor)
		}
	}
	p := scaleProposal{acted: true, kept: kept, samples: len(ds.Dests)}
	if adopt {
		p.set = make([]int, len(chosen))
		for x, l := range chosen {
			p.set[x] = w.gcands[l]
		}
		sort.Ints(p.set)
		p.estCost = estNew.Total
		p.estBand = estNew.Hi - estNew.Total
	} else {
		p.estCost = estCur.Total
		p.estBand = estCur.Hi - estCur.Total
	}
	return p, nil
}

// scaleAnchor is the price a proposal must beat: the more favorable of
// the two views of the current wiring, the model price on the proposal's
// own sample (estCurM) and the exact live price (estCur). The model view
// alone inflates current neighbors that sit outside the facility
// directory (their rows are direct-credit-only), which at 10k nodes made
// every directory rotation trigger mass re-wiring; the exact view alone
// leaves a model-vs-model mismatch the proposal can game.
func scaleAnchor(estCurM, estCur sampling.Estimate) float64 {
	if estCur.Total < estCurM.Total {
		return estCur.Total
	}
	return estCurM.Total
}

// scaleAdopts is the scale engine's BR(ε) gate with its significance
// test: does a proposal estimated at total, with 95% half-width band,
// beat anchor? While the anchor is penalty-laden (some sampled
// destination unreachable) any improvement is adopted: a relative
// threshold against a cost dominated by M·n disconnection penalties
// would veto the very re-wirings that restore connectivity. Otherwise
// the improvement must clear both the ε fraction and the estimate's own
// half-width: the proposal was *selected* to minimize this sample's
// objective, so gains inside the band are winner's-curse noise —
// re-wiring on them is how small-m runs churn forever at a converged
// cost. (A node with no wiring adopts without asking.)
//
// proposeScale also asks it before solving, at a lower bound L on the
// estimate of every set the solver could return (core's keepBound), and
// keeps the wiring without solving when it says no. That is safe because
// it would say no to the solver's result R as well:
//   - per destination L's cost is the best over every candidate row, so
//     no set's is lower; the estimate's terms are non-negative weights
//     times those costs, summed in the same order, and IEEE rounding is
//     monotone, so R.Total >= L.Total bit for bit, and anchor − R.Total
//     <= anchor − L.Total;
//   - under Demand the Poisson variance Σ(1−π)(y/π)² grows with every
//     y >= 0, so R's half-width is at least L's. Forming Hi − Total
//     rounds, by a few ulps of the totals; those stay below 3·anchor
//     whenever the half-width could decide, so L's half-width enters less
//     1e-9·anchor. Under Uniform and Stratified the variance measures
//     spread, not size, and can fall as a cost rises, so L's enters as 0;
//   - either way L's threshold is at most R's and L's improvement at
//     least R's, so rejecting L rejects R; the penalty branch compares
//     the totals alone.
func scaleAdopts(eps, anchor, total, band float64) bool {
	improve := anchor - total
	if anchor >= core.DisconnectedPenalty/2 {
		return improve > 0
	}
	threshold := eps * anchor
	if band > threshold {
		threshold = band
	}
	return improve > threshold
}

// floatsN resizes a float scratch slice to n.
func floatsN(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// intsN resizes an int scratch slice to n.
func intsN(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
