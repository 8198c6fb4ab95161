package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"egoist/internal/obs"
	"egoist/internal/sampling"
)

// EngineLab names the real-process deployment engine: the spec's
// timeline replayed against live egoistd daemons on loopback UDP
// instead of a simulated overlay.
const EngineLab = "lab"

// LabOptions configures one real-process deployment run.
type LabOptions struct {
	// Bin is the egoistd binary to deploy (required).
	Bin string
	// N overrides the spec's overlay size (0 keeps it). The sampling
	// spec is clamped to the new roster so small deployments keep
	// near-exact sampling in the reference simulation.
	N int
	// Epoch is the live wiring epoch T (default 2s). The sim leg is
	// epoch-indexed, so only the lab's wall-clock stretches with it.
	Epoch time.Duration
	// Bound is the relative final-cost gap gate against the sim leg
	// (default 0.10): the run fails when
	// |lab - sim| / sim > Bound.
	Bound float64
	// Workers is the sim leg's parallelism (0 = NumCPU).
	Workers int
	// Dir, when non-empty, keeps per-node logs and announce files there;
	// otherwise a temp dir is used and removed on success.
	Dir string
	// MetricsJSON, when non-empty, writes the fleet metrics timeline
	// there: every epoch boundary each reachable daemon's /metrics is
	// scraped and the curated series (probe, PEX, LSA, fault-drop and
	// data-plane counters) are recorded per node. The file is written
	// even when a later gate fails — it is the debugging artifact.
	MetricsJSON string
	// Logf, when non-nil, receives progress output.
	Logf func(format string, args ...interface{})
}

// labScrapeSeries is the per-daemon series kept in the fleet timeline
// (every one renders unlabeled).
var labScrapeSeries = []string{
	"egoistd_probes_total",
	"egoistd_probe_latency_ns_count",
	"egoistd_pex_peers",
	"egoistd_neighbors",
	"egoistd_lsa_seq",
	"egoistd_rewires_total",
	"egoistd_epochs_total",
	"egoistd_epoch_decision_us_total",
	"egoistd_fault_drops_send_total",
	"egoistd_fault_drops_recv_total",
	"plane_queries_onehop_total",
	"plane_queries_route_total",
	"plane_cache_hits_total",
	"plane_cache_misses_total",
	"plane_snapshot_epoch",
}

// LabMetricsSample is one scrape sweep over the fleet: the epoch whose
// boundary triggered it, the wall-clock offset from deployment start,
// and each scraped daemon's curated series. Killed daemons are simply
// absent; isolated ones still answer (the partition drops UDP, not
// HTTP) and show their fault-drop counters climbing.
type LabMetricsSample struct {
	Epoch int                        `json:"epoch"`
	TimeS float64                    `json:"t_seconds"`
	Nodes map[int]map[string]float64 `json:"nodes"`
}

// LabMetrics is the deployment-specific half of a lab run's record:
// what physically happened to the process fleet, and how close its
// converged cost landed to the simulation of the same spec.
type LabMetrics struct {
	// Processes is the peak process count; Kills and Restarts count
	// SIGKILLs and re-launches executed by the timeline; Isolated and
	// Healed count fault-injection (partition) transitions.
	Processes int `json:"processes"`
	Kills     int `json:"kills"`
	Restarts  int `json:"restarts"`
	Isolated  int `json:"isolated"`
	Healed    int `json:"healed"`
	// SimFinalCost and LabFinalCost are the two legs' final per-pair
	// costs; Gap is their relative difference, gated at Bound.
	SimFinalCost float64 `json:"sim_final_cost"`
	LabFinalCost float64 `json:"lab_final_cost"`
	Gap          float64 `json:"gap"`
	Bound        float64 `json:"bound"`
	// MinReachability is the worst per-epoch fraction of measured pairs
	// that were overlay-reachable.
	MinReachability float64 `json:"min_reachability"`
	// BootstrapSeconds is the time from first launch to full PEX
	// membership; WallSeconds the whole deployment's wall clock.
	BootstrapSeconds float64 `json:"bootstrap_seconds"`
	WallSeconds      float64 `json:"wall_seconds"`
}

// labEvent is one timeline entry lowered to concrete victims, chosen
// with the same seeded draw as the sim leg's compile() so both legs
// play the identical membership trajectory.
type labEvent struct {
	at      float64
	kind    string
	victims []int
}

// lowerLabEvents replays the event timeline over the initial
// membership exactly as compile() does — same staticSchedule, same
// lowerWave — returning per-event victim sets the harness can act on. The lab supports static membership only
// (background churn processes need sub-epoch timing fidelity no real
// deployment reproduces deterministically) and uniform demand (live
// nodes measure cost, they do not weigh it).
func (s *Spec) lowerLabEvents() (initialOn []bool, events []labEvent, lastEvent float64, err error) {
	if s.Churn != nil && s.Churn.Process != "static" {
		return nil, nil, 0, fmt.Errorf("scenario %s: lab engine needs static membership, not churn process %q", s.Name, s.Churn.Process)
	}
	if s.Demand != nil && s.Demand.Kind != "uniform" {
		return nil, nil, 0, fmt.Errorf("scenario %s: lab engine measures uniform demand only", s.Name)
	}
	sched := staticSchedule(s)
	initialOn = append([]bool(nil), sched.InitialOn...)
	on := append([]bool(nil), initialOn...)
	lastEvent = -1
	for evi, e := range s.Events {
		if e.Kind == DemandFlip {
			return nil, nil, 0, fmt.Errorf("scenario %s: lab engine cannot flip demand", s.Name)
		}
		picked, _ := s.lowerWave(evi, on)
		events = append(events, labEvent{at: e.Epoch, kind: e.Kind, victims: picked})
		lastEvent = e.Epoch
	}
	return initialOn, events, lastEvent, nil
}

// labProc is one deployed daemon.
type labProc struct {
	id       int
	cmd      *exec.Cmd
	udp      string // bound UDP address, reused across restarts
	http     string
	announce string
	logFile  *os.File
	alive    bool
	isolated bool
	rewires  int // last /status reading, for per-epoch deltas
}

// labRun is the running deployment.
type labRun struct {
	spec    *Spec
	opts    LabOptions
	dir     string
	procs   map[int]*labProc
	client  *http.Client
	lab     LabMetrics
	t0      time.Time
	samples []LabMetricsSample
}

// RunLab deploys the spec against real egoistd processes and returns a
// Metrics record with Engine "lab": the reference simulation runs
// first (with the spec's Expect gates applied unchanged), then the
// fleet is launched with PEX bootstrap, the timeline is replayed as
// kills, restarts and injected partitions, per-epoch costs are
// measured from the nodes' own data planes, and the final costs of the
// two legs must agree to within the configured bound.
//
// The Expect block is the sim leg's gate; the lab leg's gate is the
// convergence bound (a 20-process fleet's recovery trajectory is real —
// and therefore noisy — so epoch-indexed recovery expectations apply
// to the deterministic leg only).
func RunLab(spec Spec, opts LabOptions) (*Metrics, error) {
	if opts.Bin == "" {
		return nil, fmt.Errorf("scenario: lab needs the egoistd binary path")
	}
	if _, err := os.Stat(opts.Bin); err != nil {
		return nil, fmt.Errorf("scenario: lab binary: %w", err)
	}
	if opts.Epoch <= 0 {
		opts.Epoch = 2 * time.Second
	}
	if opts.Bound <= 0 {
		opts.Bound = 0.10
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	if err := rescaleForLab(&spec, opts.N); err != nil {
		return nil, err
	}
	initialOn, events, lastEvent, err := spec.lowerLabEvents()
	if err != nil {
		return nil, err
	}

	// Leg 1: the reference simulation, Expect gates and all.
	opts.Logf("lab %s: sim leg (n=%d k=%d epochs=%d)", spec.Name, spec.N, spec.K, spec.Epochs)
	simM, err := Run(spec, Options{Workers: opts.Workers})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: sim leg: %w", spec.Name, err)
	}
	if simM.FinalCost <= 0 {
		return nil, fmt.Errorf("scenario %s: sim leg final cost %v is unobservable — nothing to converge to", spec.Name, simM.FinalCost)
	}

	// Leg 2: the deployment.
	dir := opts.Dir
	if dir == "" {
		dir, err = os.MkdirTemp("", "egoist-lab-")
		if err != nil {
			return nil, err
		}
	}
	r := &labRun{
		spec: &spec, opts: opts, dir: dir,
		procs:  make(map[int]*labProc),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	r.lab.Bound = opts.Bound
	defer r.teardown()
	defer r.writeFleetMetrics()

	m := &Metrics{
		Scenario: spec.Name, Engine: EngineLab,
		N: spec.N, K: spec.K, Seed: spec.Seed,
		Epochs: spec.Epochs,
	}
	start := time.Now()
	if err := r.bootstrap(initialOn); err != nil {
		return nil, fmt.Errorf("scenario %s: lab bootstrap: %w", spec.Name, err)
	}
	r.lab.BootstrapSeconds = time.Since(start).Seconds()
	opts.Logf("lab %s: %d processes bootstrapped in %.1fs", spec.Name, len(r.procs), r.lab.BootstrapSeconds)

	if err := r.playTimeline(events, m); err != nil {
		return nil, fmt.Errorf("scenario %s: lab timeline: %w", spec.Name, err)
	}
	r.lab.WallSeconds = time.Since(start).Seconds()

	// Derive the aggregates the way the sim legs do, then gate on the
	// cross-leg convergence bound.
	finishMetrics(m, &compiled{lastEvent: lastEvent}, spec.recoverTol())
	if n := len(m.RewiresPerEpoch); n > 0 {
		alive := r.aliveCount()
		m.Converged = float64(m.RewiresPerEpoch[n-1]) <= 0.01*float64(alive)
	}
	r.lab.SimFinalCost = simM.FinalCost
	r.lab.LabFinalCost = m.FinalCost
	r.lab.Gap = math.Abs(m.FinalCost-simM.FinalCost) / simM.FinalCost
	m.Lab = &r.lab
	opts.Logf("lab %s: final cost lab=%.2f sim=%.2f gap=%.1f%% (bound %.0f%%)",
		spec.Name, m.FinalCost, simM.FinalCost, r.lab.Gap*100, opts.Bound*100)
	if m.FinalCost <= 0 {
		return m, fmt.Errorf("scenario %s: lab final cost unobservable (no data-plane answers in the last epoch)", spec.Name)
	}
	if r.lab.Gap > opts.Bound {
		return m, fmt.Errorf("scenario %s: lab final cost %.2f vs sim %.2f — gap %.1f%% exceeds the %.0f%% bound",
			spec.Name, m.FinalCost, simM.FinalCost, r.lab.Gap*100, opts.Bound*100)
	}
	if opts.Dir == "" {
		os.RemoveAll(dir)
	}
	return m, nil
}

// rescaleForLab shrinks (or grows) the spec to the requested roster,
// clamping the sample size so small deployments keep near-exact
// sampling in the reference leg.
func rescaleForLab(s *Spec, n int) error {
	if n == 0 || n == s.N {
		return s.Validate()
	}
	if s.Sample != "" {
		sp, err := parseSampleClamped(s.Sample, n)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		s.Sample = sp
	}
	s.N = n
	return s.Validate()
}

// parseSampleClamped clamps a "strategy:m" spec's m to the n-2
// destinations an n-node overlay actually has.
func parseSampleClamped(sample string, n int) (string, error) {
	sp, err := sampling.ParseSpec(sample)
	if err != nil {
		return "", err
	}
	if sp.M > n-2 {
		sp.M = n - 2
	}
	return sp.String(), nil
}

// epsilonFor mirrors the scale engine's default: live nodes get the
// same BR(ε) damping the sim leg plays with.
func (s *Spec) epsilonFor() float64 {
	if s.Epsilon > 0 {
		return s.Epsilon
	}
	return 0.05
}

// bootstrap launches the initially-alive fleet with PEX membership: the
// lowest-id node is the rendezvous (it knows nobody), every other
// launch names up to three already-announced peers, and the barrier
// holds until every node's /status reports the full roster.
func (r *labRun) bootstrap(initialOn []bool) error {
	var ids []int
	for v, on := range initialOn {
		if on {
			ids = append(ids, v)
		}
	}
	if len(ids) < r.spec.K+2 {
		return fmt.Errorf("only %d nodes initially alive, need >= k+2 = %d", len(ids), r.spec.K+2)
	}
	for _, id := range ids {
		if err := r.launch(id, ""); err != nil {
			return err
		}
		if len(r.procs) == 1 {
			// The rendezvous must be addressable before anyone can name it.
			if err := r.awaitAnnounce(r.procs[id], 30*time.Second); err != nil {
				return err
			}
		}
	}
	deadline := 30*time.Second + time.Duration(len(ids))*500*time.Millisecond
	for _, id := range ids {
		if err := r.awaitAnnounce(r.procs[id], deadline); err != nil {
			return err
		}
	}
	return r.awaitMembership(ids, deadline)
}

// launch starts one daemon. bind is empty for a fresh ephemeral port or
// a previous life's address for a restart (UDP ports have no lingering
// state, and re-binding the old port means gossiped address books stay
// valid even before the restart's own announcements spread).
func (r *labRun) launch(id int, bind string) error {
	p := r.procs[id]
	if p == nil {
		p = &labProc{id: id, announce: filepath.Join(r.dir, fmt.Sprintf("node%d.json", id))}
		r.procs[id] = p
		if len(r.procs) > r.lab.Processes {
			r.lab.Processes = len(r.procs)
		}
		logPath := filepath.Join(r.dir, fmt.Sprintf("node%d.log", id))
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		p.logFile = f
	}
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	os.Remove(p.announce) // the poll below must see this life's file
	args := []string{
		"-id", fmt.Sprint(id),
		"-n", fmt.Sprint(r.spec.N),
		"-k", fmt.Sprint(r.spec.K),
		"-bind", bind,
		"-http", "127.0.0.1:0",
		"-epoch", r.opts.Epoch.String(),
		"-epsilon", fmt.Sprint(r.spec.epsilonFor()),
		"-oracle", fmt.Sprintf("lite:%d", r.spec.Seed+1),
		"-announce", p.announce,
	}
	if peers := r.peersFor(id); peers != "" {
		args = append(args, "-peers", peers)
	}
	cmd := exec.Command(r.opts.Bin, args...)
	cmd.Stdout = p.logFile
	cmd.Stderr = p.logFile
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("node %d: %w", id, err)
	}
	p.cmd = cmd
	p.alive = true
	p.isolated = false
	p.rewires = 0
	return nil
}

// peersFor picks up to three rendezvous addresses from already-running
// announced nodes (ascending id, so every launch agrees on the core).
func (r *labRun) peersFor(id int) string {
	var ids []int
	for pid, p := range r.procs {
		if pid != id && p.alive && p.udp != "" {
			ids = append(ids, pid)
		}
	}
	sort.Ints(ids)
	if len(ids) > 3 {
		ids = ids[:3]
	}
	var parts []string
	for _, pid := range ids {
		parts = append(parts, fmt.Sprintf("%d@%s", pid, r.procs[pid].udp))
	}
	return joinComma(parts)
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// awaitAnnounce polls for the daemon's ready file and records its
// bound addresses.
func (r *labRun) awaitAnnounce(p *labProc, timeout time.Duration) error {
	stop := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(p.announce)
		if err == nil {
			var info struct {
				UDP  string `json:"udp"`
				HTTP string `json:"http"`
			}
			if json.Unmarshal(data, &info) == nil && info.UDP != "" && info.HTTP != "" {
				p.udp, p.http = info.UDP, info.HTTP
				return nil
			}
		}
		if time.Now().After(stop) {
			return fmt.Errorf("node %d never announced (see %s)", p.id, p.announce)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// awaitMembership blocks until every listed node's /status knows the
// whole roster — the PEX convergence barrier.
func (r *labRun) awaitMembership(ids []int, timeout time.Duration) error {
	stop := time.Now().Add(timeout)
	for {
		lagging, minKnown := -1, 0
		for _, id := range ids {
			st, err := r.status(r.procs[id])
			if err != nil || len(st.Known) < len(ids)-1 {
				lagging = id
				if st != nil {
					minKnown = len(st.Known)
				}
				break
			}
		}
		if lagging < 0 {
			return nil
		}
		if time.Now().After(stop) {
			return fmt.Errorf("PEX never converged: node %d knows %d of %d peers", lagging, minKnown, len(ids)-1)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

type labStatus struct {
	ID        int   `json:"id"`
	Neighbors []int `json:"neighbors"`
	Known     []int `json:"known"`
	Rewires   int   `json:"rewires"`
}

func (r *labRun) status(p *labProc) (*labStatus, error) {
	resp, err := r.client.Get("http://" + p.http + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st labStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// playTimeline replays the lowered events against the fleet on the lab
// clock (epoch e fires at t0 + e·T) and measures the overlay at every
// epoch boundary, filling the metrics record's per-epoch series.
func (r *labRun) playTimeline(events []labEvent, m *Metrics) error {
	type step struct {
		at      float64
		event   *labEvent
		measure int // epoch index to measure, -1 for events
	}
	var steps []step
	for i := range events {
		steps = append(steps, step{at: events[i].at, event: &events[i], measure: -1})
	}
	for e := 0; e < r.spec.Epochs; e++ {
		steps = append(steps, step{at: float64(e + 1), measure: e})
	}
	sort.SliceStable(steps, func(a, b int) bool {
		if steps[a].at != steps[b].at {
			return steps[a].at < steps[b].at
		}
		// An event tied with a boundary fires first, as in the engines.
		return steps[a].measure < steps[b].measure
	})
	t0 := time.Now()
	r.t0 = t0
	for _, s := range steps {
		due := t0.Add(time.Duration(s.at * float64(r.opts.Epoch)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if s.event != nil {
			if err := r.apply(s.event, m); err != nil {
				return err
			}
			continue
		}
		cost, rewires := r.measure()
		m.CostPerEpoch = append(m.CostPerEpoch, cost)
		m.RewiresPerEpoch = append(m.RewiresPerEpoch, rewires)
		r.scrapeFleet(s.measure)
		r.opts.Logf("lab %s: epoch %d cost=%.2f rewires=%d alive=%d",
			r.spec.Name, s.measure, cost, rewires, r.aliveCount())
	}

	// Settle window: a real fleet pays for its knowledge — probe rounds,
	// EWMA warm-up, LSA propagation — so it descends slower than the
	// all-seeing sim and is usually still re-wiring when the spec's
	// horizon ends. The convergence gate compares equilibria, not
	// descent speed: keep measuring (no more events fire) until the
	// fleet goes quiet for two consecutive epochs, bounded by one extra
	// horizon.
	settleMax := r.spec.Epochs
	if settleMax < 8 {
		settleMax = 8
	}
	quiet := 0
	for extra := 0; extra < settleMax && quiet < 2; extra++ {
		due := t0.Add(time.Duration(r.spec.Epochs+extra+1) * r.opts.Epoch)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		cost, rewires := r.measure()
		m.CostPerEpoch = append(m.CostPerEpoch, cost)
		m.RewiresPerEpoch = append(m.RewiresPerEpoch, rewires)
		r.scrapeFleet(r.spec.Epochs + extra)
		if rewires == 0 {
			quiet++
		} else {
			quiet = 0
		}
		r.opts.Logf("lab %s: settle +%d cost=%.2f rewires=%d",
			r.spec.Name, extra+1, cost, rewires)
	}
	m.Epochs = len(m.CostPerEpoch)
	r.dumpWiring()
	return nil
}

// dumpWiring records every alive node's final neighbor set and delay
// estimates to wiring.json in the run directory — kept when the caller
// supplied -dir, and the raw material for pricing the deployed overlay
// against the oracle offline.
func (r *labRun) dumpWiring() {
	type nodeDump struct {
		Neighbors []int           `json:"neighbors"`
		Estimates map[int]float64 `json:"estimates_ms"`
	}
	dump := struct {
		N     int              `json:"n"`
		Alive []int            `json:"alive"`
		Nodes map[int]nodeDump `json:"nodes"`
	}{N: r.spec.N, Alive: r.aliveIDs(), Nodes: map[int]nodeDump{}}
	for _, id := range dump.Alive {
		resp, err := r.client.Get("http://" + r.procs[id].http + "/status")
		if err != nil {
			continue
		}
		var st struct {
			Neighbors []int           `json:"neighbors"`
			Estimates map[int]float64 `json:"estimates_ms"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil {
			dump.Nodes[id] = nodeDump{Neighbors: st.Neighbors, Estimates: st.Estimates}
		}
	}
	if data, err := json.MarshalIndent(dump, "", " "); err == nil {
		_ = os.WriteFile(filepath.Join(r.dir, "wiring.json"), data, 0o644)
	}
}

// apply executes one timeline event against the fleet.
func (r *labRun) apply(e *labEvent, m *Metrics) error {
	r.opts.Logf("lab %s: epoch %.1f %s -> %v", r.spec.Name, e.at, e.kind, e.victims)
	for _, v := range e.victims {
		switch e.kind {
		case LeaveWave:
			r.kill(v)
			m.Leaves++
		case JoinWave:
			if err := r.restart(v); err != nil {
				return err
			}
			m.Joins++
		case Outage:
			if err := r.isolate(v, true); err != nil {
				return err
			}
			m.Leaves++
		case Heal:
			if err := r.isolate(v, false); err != nil {
				return err
			}
			m.Joins++
		}
	}
	return nil
}

// kill SIGKILLs a node — no goodbye, exactly the failure the protocol's
// staleness rules must absorb.
func (r *labRun) kill(id int) {
	p := r.procs[id]
	if p == nil || !p.alive {
		return
	}
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
	p.alive = false
	r.lab.Kills++
}

// restart brings a node (back) up. A reborn node re-binds its old UDP
// port — gossiped books stay valid — and bootstraps from whichever
// three nodes are currently alive; its clock-derived LSA sequence base
// supersedes its previous life.
func (r *labRun) restart(id int) error {
	bind := ""
	if p := r.procs[id]; p != nil {
		if p.alive {
			return nil
		}
		bind = p.udp
	}
	if err := r.launch(id, bind); err != nil {
		return err
	}
	if err := r.awaitAnnounce(r.procs[id], 30*time.Second); err != nil {
		return err
	}
	r.lab.Restarts++
	return nil
}

// isolate injects (or clears) a full partition around a node via its
// /ctl/drop endpoint: every peer is dropped on both send and receive,
// so the process stays up but falls silent — the outage model.
func (r *labRun) isolate(id int, on bool) error {
	p := r.procs[id]
	if p == nil || !p.alive {
		return nil
	}
	peers := []int{}
	if on {
		for v := 0; v < r.spec.N; v++ {
			if v != id {
				peers = append(peers, v)
			}
		}
	}
	body, _ := json.Marshal(map[string][]int{"peers": peers})
	resp, err := r.client.Post("http://"+p.http+"/ctl/drop", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("node %d drop ctl: %w", id, err)
	}
	resp.Body.Close()
	p.isolated = on
	if on {
		r.lab.Isolated++
	} else {
		r.lab.Healed++
	}
	return nil
}

// aliveIDs is the measurable roster: running and not partitioned away.
func (r *labRun) aliveIDs() []int {
	var ids []int
	for id, p := range r.procs {
		if p.alive && !p.isolated {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func (r *labRun) aliveCount() int { return len(r.aliveIDs()) }

// measure asks every alive node's own data plane for its routed cost
// to every other alive node and aggregates the same statistic the sim
// legs report: the mean over nodes of the full-roster routed cost,
// normalized per destination pair. Unreachable pairs are excluded from
// the sum (the sim's equivalent penalty would drown the signal) and
// tracked via MinReachability instead. Also drains each node's rewire
// counter delta for the epoch's churn measure.
func (r *labRun) measure() (cost float64, rewires int) {
	ids := r.aliveIDs()
	if len(ids) < 2 {
		return -1, 0
	}
	type nodeResult struct {
		sum       float64
		ok        bool
		reachable int
		rewires   int
	}
	results := make([]nodeResult, len(ids))
	var wg sync.WaitGroup
	for idx, id := range ids {
		wg.Add(1)
		go func(idx, id int) {
			defer wg.Done()
			p := r.procs[id]
			pairs := make([][2]int, 0, len(ids)-1)
			for _, j := range ids {
				if j != id {
					pairs = append(pairs, [2]int{id, j})
				}
			}
			body, _ := json.Marshal(map[string]interface{}{"mode": "route", "pairs": pairs})
			resp, err := r.client.Post("http://"+p.http+"/routes", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var batch struct {
				Results []struct {
					Cost float64 `json:"cost"`
					Ok   bool    `json:"ok"`
				} `json:"results"`
			}
			if json.NewDecoder(resp.Body).Decode(&batch) != nil {
				return
			}
			nr := nodeResult{ok: true}
			for _, res := range batch.Results {
				if res.Ok {
					nr.sum += res.Cost
					nr.reachable++
				}
			}
			if st, err := r.status(p); err == nil {
				nr.rewires = st.Rewires - p.rewires
				p.rewires = st.Rewires
			}
			results[idx] = nr
		}(idx, id)
	}
	wg.Wait()

	responded, reachable, pairs := 0, 0, 0
	total := 0.0
	for _, nr := range results {
		if !nr.ok {
			continue
		}
		responded++
		total += nr.sum
		reachable += nr.reachable
		pairs += len(ids) - 1
		if nr.rewires > 0 {
			rewires += nr.rewires
		}
	}
	if responded == 0 || pairs == 0 {
		return -1, rewires
	}
	frac := float64(reachable) / float64(pairs)
	if r.lab.MinReachability == 0 || frac < r.lab.MinReachability {
		r.lab.MinReachability = frac
	}
	return total / float64(responded) / float64(len(ids)-1), rewires
}

// scrapeFleet sweeps every running daemon's /metrics endpoint (HTTP
// still answers inside an injected partition) and appends one fleet
// sample. Scrape failures skip the node — a daemon dying mid-sweep is
// exactly the kind of moment the timeline should record, not abort on.
func (r *labRun) scrapeFleet(epoch int) {
	if r.opts.MetricsJSON == "" {
		return
	}
	var ids []int
	for id, p := range r.procs {
		if p.alive {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	nodes := make([]map[string]float64, len(ids))
	var wg sync.WaitGroup
	for idx, id := range ids {
		wg.Add(1)
		go func(idx, id int) {
			defer wg.Done()
			resp, err := r.client.Get("http://" + r.procs[id].http + "/metrics")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				return
			}
			all := obs.ParsePrometheus(buf.Bytes())
			kept := make(map[string]float64, len(labScrapeSeries))
			for _, name := range labScrapeSeries {
				if v, ok := all[name]; ok {
					kept[name] = v
				}
			}
			nodes[idx] = kept
		}(idx, id)
	}
	wg.Wait()
	sample := LabMetricsSample{
		Epoch: epoch,
		TimeS: time.Since(r.t0).Seconds(),
		Nodes: make(map[int]map[string]float64, len(ids)),
	}
	for idx, id := range ids {
		if nodes[idx] != nil {
			sample.Nodes[id] = nodes[idx]
		}
	}
	r.samples = append(r.samples, sample)
}

// writeFleetMetrics dumps the accumulated scrape timeline. Runs on the
// RunLab defer so a failed convergence gate still leaves the artifact.
func (r *labRun) writeFleetMetrics() {
	if r.opts.MetricsJSON == "" || len(r.samples) == 0 {
		return
	}
	dump := struct {
		Scenario string             `json:"scenario"`
		N        int                `json:"n"`
		EpochSec float64            `json:"epoch_seconds"`
		Series   []string           `json:"series"`
		Samples  []LabMetricsSample `json:"samples"`
	}{
		Scenario: r.spec.Name, N: r.spec.N,
		EpochSec: r.opts.Epoch.Seconds(),
		Series:   labScrapeSeries,
		Samples:  r.samples,
	}
	data, err := json.MarshalIndent(dump, "", " ")
	if err != nil {
		return
	}
	if err := os.WriteFile(r.opts.MetricsJSON, append(data, '\n'), 0o644); err != nil {
		r.opts.Logf("lab %s: fleet metrics write: %v", r.spec.Name, err)
		return
	}
	r.opts.Logf("lab %s: fleet metrics timeline (%d samples) written to %s",
		r.spec.Name, len(r.samples), r.opts.MetricsJSON)
}

// teardown kills the whole fleet and closes its logs.
func (r *labRun) teardown() {
	for _, p := range r.procs {
		if p.alive && p.cmd != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
		if p.logFile != nil {
			p.logFile.Close()
		}
	}
}
