// Package scenario is the declarative workload harness: one spec
// describes an overlay (size, degree budget, policy or sampling
// strategy), a demand model, a background churn process and an event
// timeline — flash-crowd join waves, churn storms, regional
// outage/heal, demand flips — and the runner executes it on either
// simulation engine (the O(n²) full simulator or the sampled scale
// engine), emitting one deterministic metrics record per run. Specs
// round-trip through JSON, so the same file drives Go tests, the CLI
// tools and the CI scenario matrix.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"egoist/internal/core"
	"egoist/internal/sampling"
)

// Engine names the simulation engine a spec runs on.
const (
	// EngineScale is the sampled large-scale engine (sim.RunScale).
	EngineScale = "scale"
	// EngineFull is the O(n²) full simulator (sim.Run).
	EngineFull = "full"
)

// Event kinds of the scenario timeline.
const (
	// JoinWave turns a fraction of the currently-off nodes on — a flash
	// crowd.
	JoinWave = "join_wave"
	// LeaveWave turns a fraction of the currently-alive nodes off — a
	// correlated failure or mass departure.
	LeaveWave = "leave_wave"
	// Outage turns every alive node of one region off.
	Outage = "outage"
	// Heal turns every off node of one region back on.
	Heal = "heal"
	// DemandFlip rotates the demand model's weight structure (hotspot
	// set shift, gravity transpose) without touching membership.
	DemandFlip = "demand_flip"
)

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario in metrics records and artifacts.
	Name string `json:"name"`
	// Engine selects the default engine: "scale" (default) or "full".
	// The runner may override it to run one spec on both engines.
	Engine string `json:"engine,omitempty"`
	// N is the overlay size, K the per-node degree budget.
	N int `json:"n"`
	K int `json:"k"`
	// Seed drives all randomness (engine dynamics, churn process, wave
	// selection). Identical specs produce byte-identical metric records
	// at any worker count.
	Seed int64 `json:"seed"`
	// Epochs bounds the run; event epochs must fall inside [0, Epochs).
	Epochs int `json:"epochs"`
	// Policy is the full engine's neighbor selection: "BR" (default),
	// "HybridBR", "k-Random", "k-Closest" or "k-Regular". Ignored by
	// the scale engine, which always plays sampled best response.
	Policy string `json:"policy,omitempty"`
	// Epsilon is the BR(ε) threshold (engine default when 0).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Sample is the scale engine's sampling spec "strategy:m"
	// (default "demand:max(k+2, min(n/20, 500))"). Ignored by the full
	// engine.
	Sample string `json:"sample,omitempty"`
	// Stagger overrides the scale engine's sub-round count per epoch
	// (StaggerBatches; 0 keeps the engine default max(16, n/32)).
	// A dynamics knob — it changes when nodes act and how often
	// sub-round publications fire — so it is part of the scenario, not
	// the run options. Ignored by the full engine.
	Stagger int `json:"stagger,omitempty"`
	// Demand selects the preference weights p_ij (nil = uniform).
	Demand *DemandModel `json:"demand,omitempty"`
	// Churn is the background membership process (nil = static).
	Churn *ChurnProcess `json:"churn,omitempty"`
	// Events is the scenario timeline, in epoch order.
	Events []Event `json:"events,omitempty"`
	// Serve, when non-nil, hammers the routing data plane while the
	// scenario plays: every epoch publishes a plane.Snapshot and a
	// deterministic query panel measures lookup availability and
	// stretch against the previous epoch's published snapshot (the
	// freshness a live client actually sees during a re-wiring epoch).
	// Requires the scale engine, so specs with Serve must pin
	// engine="scale".
	Serve *ServeSpec `json:"serve,omitempty"`
	// Expect, when non-nil, turns the run into a gate: the runner
	// errors if the expectations are violated.
	Expect *Expect `json:"expect,omitempty"`
}

// Publish modes of the serve panel.
const (
	// PublishEpoch publishes one full snapshot per epoch (the default):
	// every query of epoch e is answered from the snapshot compiled at
	// the end of epoch e-1 — up to a whole epoch of staleness.
	PublishEpoch = "epoch"
	// PublishSubround publishes at stagger sub-round granularity: the
	// bootstrap compiles one full snapshot, then every sub-round's
	// changed rows are delta-patched onto the previous snapshot
	// (plane.Snapshot.Patch) and republished, so staleness shrinks to
	// one sub-round. The query panel is spread across the epoch's
	// sub-round windows accordingly.
	PublishSubround = "subround"
)

// ServeSpec enables serve-under-churn measurement.
type ServeSpec struct {
	// QueriesPerEpoch is the per-epoch size of the query panel: src/dst
	// pairs drawn uniformly from the currently-alive roster and
	// answered from the last published snapshot.
	QueriesPerEpoch int `json:"queries_per_epoch"`
	// Publish is the publication cadence: PublishEpoch (default) or
	// PublishSubround.
	Publish string `json:"publish,omitempty"`
}

// DemandModel selects the preference weights p_ij.
type DemandModel struct {
	// Kind is "uniform", "gravity" (deterministic pairwise skew) or
	// "hotspot" (a small set of nodes attracts Weight× demand).
	Kind string `json:"kind"`
	// Hotspots is the hotspot count (default n/20, min 1).
	Hotspots int `json:"hotspots,omitempty"`
	// Weight is the hotspot multiplier (default 10).
	Weight float64 `json:"weight,omitempty"`
}

// ChurnProcess is the background membership process, compiled to a
// churn.Schedule.
type ChurnProcess struct {
	// Process is "exp" (memoryless sessions), "pareto" (heavy-tailed
	// sessions) or "static" (initial membership only, no background
	// events — the substrate for pure event timelines).
	Process string `json:"process"`
	// OnMean and OffMean are the mean session and gap durations in
	// epochs (ignored by "static").
	OnMean  float64 `json:"on_mean,omitempty"`
	OffMean float64 `json:"off_mean,omitempty"`
	// Alpha is the Pareto shape (default 1.5).
	Alpha float64 `json:"alpha,omitempty"`
	// StartOn is the probability a node starts alive (default 0.9).
	StartOn float64 `json:"start_on,omitempty"`
	// Timescale rescales event times (< 1 compresses: more churn per
	// epoch), sweeping intensity the way the paper rescales its traces.
	Timescale float64 `json:"timescale,omitempty"`
}

// Event is one timeline entry.
type Event struct {
	// Epoch is when the event fires, in epoch units (fractions land
	// between the scale engine's stagger sub-rounds).
	Epoch float64 `json:"epoch"`
	// Kind is one of JoinWave, LeaveWave, Outage, Heal, DemandFlip.
	Kind string `json:"kind"`
	// Frac sizes the waves: JoinWave turns on Frac·N of the off nodes,
	// LeaveWave turns off Frac·alive nodes.
	Frac float64 `json:"frac,omitempty"`
	// Region and Regions address Outage/Heal: region r of R is the id
	// band [r·N/R, (r+1)·N/R). Regions defaults to 4.
	Region  int `json:"region,omitempty"`
	Regions int `json:"regions,omitempty"`
}

// Expect gates a run on its metrics.
type Expect struct {
	// MustConverge fails the run if the dynamics never settle.
	MustConverge bool `json:"must_converge,omitempty"`
	// MaxRecoveryEpochs fails the run if the cost has not returned to
	// within RecoverWithin of its pre-event value this many epochs
	// after the last event (0 = unchecked).
	MaxRecoveryEpochs int `json:"max_recovery_epochs,omitempty"`
	// RecoverWithin is the recovery tolerance (default 0.05).
	RecoverWithin float64 `json:"recover_within,omitempty"`
	// MinAvailability fails the run if any epoch's data-plane lookup
	// availability fell below it (0 = unchecked; requires Serve). The
	// zero-failed-lookups invariant — every query answered from some
	// published snapshot — is not an expectation but a harness
	// contract: the runner always errors when it is violated.
	MinAvailability float64 `json:"min_availability,omitempty"`
}

// Validate checks the spec is well-formed.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	switch s.Engine {
	case "", EngineScale, EngineFull:
	default:
		return fmt.Errorf("scenario %s: unknown engine %q", s.Name, s.Engine)
	}
	if s.N < 4 {
		return fmt.Errorf("scenario %s: n = %d, need >= 4", s.Name, s.N)
	}
	if s.K < 1 || s.K >= s.N {
		return fmt.Errorf("scenario %s: k = %d, need 1 <= k < n", s.Name, s.K)
	}
	if s.Epochs < 1 {
		return fmt.Errorf("scenario %s: epochs = %d, need >= 1", s.Name, s.Epochs)
	}
	if _, err := s.policy(); err != nil {
		return err
	}
	if s.Sample != "" {
		if _, err := sampling.ParseSpec(s.Sample); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Stagger < 0 || s.Stagger > s.N {
		return fmt.Errorf("scenario %s: stagger = %d outside [0, n=%d]", s.Name, s.Stagger, s.N)
	}
	if s.Demand != nil {
		switch s.Demand.Kind {
		case "uniform", "gravity", "hotspot":
		default:
			return fmt.Errorf("scenario %s: unknown demand kind %q", s.Name, s.Demand.Kind)
		}
	}
	if s.Churn != nil {
		switch s.Churn.Process {
		case "exp", "pareto", "static":
		default:
			return fmt.Errorf("scenario %s: unknown churn process %q", s.Name, s.Churn.Process)
		}
		if s.Churn.Process != "static" && (s.Churn.OnMean <= 0 || s.Churn.OffMean <= 0) {
			return fmt.Errorf("scenario %s: churn process %q needs positive on/off means", s.Name, s.Churn.Process)
		}
	}
	if s.Serve != nil {
		if s.Serve.QueriesPerEpoch < 1 {
			return fmt.Errorf("scenario %s: serve needs queries_per_epoch >= 1", s.Name)
		}
		if s.Engine != EngineScale {
			return fmt.Errorf("scenario %s: serve requires engine %q pinned (the full engine has no static delay oracle to price stretch against)", s.Name, EngineScale)
		}
		switch s.Serve.Publish {
		case "", PublishEpoch, PublishSubround:
		default:
			return fmt.Errorf("scenario %s: unknown serve publish mode %q (want %q or %q)",
				s.Name, s.Serve.Publish, PublishEpoch, PublishSubround)
		}
	}
	if s.Expect != nil && s.Expect.MinAvailability > 0 {
		if s.Expect.MinAvailability > 1 {
			return fmt.Errorf("scenario %s: min_availability %v outside (0, 1]", s.Name, s.Expect.MinAvailability)
		}
		if s.Serve == nil {
			return fmt.Errorf("scenario %s: min_availability expects serve to be enabled", s.Name)
		}
	}
	last := -1.0
	for i, e := range s.Events {
		if e.Epoch < 0 || e.Epoch >= float64(s.Epochs) {
			return fmt.Errorf("scenario %s: event %d at epoch %v outside [0, %d)", s.Name, i, e.Epoch, s.Epochs)
		}
		if e.Epoch < last {
			return fmt.Errorf("scenario %s: event %d out of order", s.Name, i)
		}
		last = e.Epoch
		switch e.Kind {
		case JoinWave, LeaveWave:
			if e.Frac <= 0 || e.Frac > 1 {
				return fmt.Errorf("scenario %s: event %d frac %v outside (0, 1]", s.Name, i, e.Frac)
			}
		case Outage, Heal:
			regions := e.Regions
			if regions == 0 {
				regions = 4
			}
			if regions < 2 || regions > s.N {
				return fmt.Errorf("scenario %s: event %d regions = %d", s.Name, i, regions)
			}
			if e.Region < 0 || e.Region >= regions {
				return fmt.Errorf("scenario %s: event %d region %d of %d", s.Name, i, e.Region, regions)
			}
		case DemandFlip:
			if s.Demand == nil || s.Demand.Kind == "uniform" {
				return fmt.Errorf("scenario %s: event %d flips a uniform demand", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %s: event %d unknown kind %q", s.Name, i, e.Kind)
		}
	}
	return nil
}

// policy resolves the full engine's Policy name. The full mesh is Fig. 1's
// bound, not a scenario policy.
func (s *Spec) policy() (core.Policy, error) {
	p, err := core.PolicyByName(s.Policy)
	if _, mesh := p.(core.FullMesh); err != nil || mesh {
		return nil, fmt.Errorf("scenario %s: unknown policy %q", s.Name, s.Policy)
	}
	return p, nil
}

// Load reads and validates one spec file (strict JSON: unknown fields
// are errors, so typos in hand-written specs surface immediately).
func Load(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir reads every *.json spec in dir, sorted by filename.
func LoadDir(dir string) ([]Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	var specs []Spec
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// Builtin returns a named built-in scenario. The smoke-sized ones are
// the CI matrix; "leave-wave-10k" is the headline churn-at-scale run
// the nightly workflow executes.
func Builtin(name string) (Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// BuiltinNames lists the built-in scenario names.
func BuiltinNames() []string {
	bs := Builtins()
	names := make([]string, len(bs))
	for i, s := range bs {
		names[i] = s.Name
	}
	return names
}

// Builtins returns every built-in scenario.
func Builtins() []Spec {
	return []Spec{
		{
			// A 30% flash crowd hits a converged overlay.
			Name: "flash-crowd", N: 120, K: 3, Seed: 2008, Epochs: 10,
			Sample: "demand:30",
			Churn:  &ChurnProcess{Process: "static", StartOn: 0.7},
			Events: []Event{{Epoch: 5, Kind: JoinWave, Frac: 0.3}},
		},
		{
			// Background churn with a compressed storm: a leave wave
			// followed by a return wave two epochs later.
			Name: "churn-storm", N: 120, K: 3, Seed: 2008, Epochs: 12,
			Sample: "demand:30",
			Churn:  &ChurnProcess{Process: "exp", OnMean: 60, OffMean: 12},
			Events: []Event{
				{Epoch: 5, Kind: LeaveWave, Frac: 0.15},
				{Epoch: 7, Kind: JoinWave, Frac: 0.15},
			},
		},
		{
			// One of four regions goes dark, then heals.
			Name: "regional-outage", N: 120, K: 3, Seed: 2008, Epochs: 12,
			Sample: "demand:30",
			Events: []Event{
				{Epoch: 4, Kind: Outage, Region: 1, Regions: 4},
				{Epoch: 8, Kind: Heal, Region: 1, Regions: 4},
			},
		},
		{
			// The hotspot set rotates mid-run: the wiring must chase it.
			Name: "demand-flip", N: 120, K: 3, Seed: 2008, Epochs: 10,
			Sample: "demand:30",
			Demand: &DemandModel{Kind: "hotspot", Hotspots: 6},
			Events: []Event{{Epoch: 5, Kind: DemandFlip}},
		},
		{
			// The acceptance-criterion shape at smoke size: a 5% leave
			// wave must recover within 3 epochs to within 5%, while the
			// data plane keeps answering every lookup from the last
			// published snapshot (engine pinned: serve needs the scale
			// engine's static delay oracle).
			Name: "leave-wave", N: 400, K: 4, Seed: 2008, Epochs: 8,
			Engine: EngineScale, Sample: "demand:60",
			Events: []Event{{Epoch: 4.3, Kind: LeaveWave, Frac: 0.05}},
			Serve:  &ServeSpec{QueriesPerEpoch: 200},
			Expect: &Expect{MaxRecoveryEpochs: 3, RecoverWithin: 0.05, MinAvailability: 0.97},
		},
		{
			// The headline churn-at-scale run (nightly CI): n=10000 k=8
			// demand:500, 5% leave wave after convergence (the static
			// run converges in 3 epochs), recovery within 3 epochs of
			// the pre-event converged cost — measured recovery is 1
			// epoch (190.5 at the wave epoch back to 177.7 vs the 172.8
			// pre-event cost). 7 epochs (~96s/epoch single-core, near-
			// linearly less with -workers) observe the full recovery
			// window; the nightly job runs with -workers $(nproc) to
			// stay under its 10-minute bound.
			Name: "leave-wave-10k", N: 10000, K: 8, Seed: 2008, Epochs: 7,
			Engine: EngineScale, Sample: "demand:500",
			Events: []Event{{Epoch: 3.3, Kind: LeaveWave, Frac: 0.05}},
			Serve:  &ServeSpec{QueriesPerEpoch: 200},
			Expect: &Expect{MaxRecoveryEpochs: 3, RecoverWithin: 0.05, MinAvailability: 0.97},
		},
	}
}

// EngineList parses a comma-separated engine list ("scale,full").
func EngineList(s string) ([]string, error) {
	if s == "" {
		return []string{EngineScale}, nil
	}
	var out []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		switch e {
		case EngineScale, EngineFull:
			out = append(out, e)
		default:
			return nil, fmt.Errorf("scenario: unknown engine %q (want scale or full)", e)
		}
	}
	return out, nil
}
