package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSpec is a fast spec exercising churn, a wave and a demand flip.
func smokeSpec() Spec {
	return Spec{
		Name: "smoke", N: 60, K: 3, Seed: 7, Epochs: 6,
		Sample: "uniform:15",
		Demand: &DemandModel{Kind: "hotspot", Hotspots: 4},
		Churn:  &ChurnProcess{Process: "exp", OnMean: 40, OffMean: 10},
		Events: []Event{
			{Epoch: 2, Kind: LeaveWave, Frac: 0.1},
			{Epoch: 3, Kind: DemandFlip},
			{Epoch: 4, Kind: JoinWave, Frac: 0.1},
		},
	}
}

// TestSpecJSONRoundTrip saves and reloads a spec unchanged.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := smokeSpec()
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(spec)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed the spec:\n%s\n%s", a, b)
	}
	// Unknown fields must be rejected by name (typo protection for
	// hand-written specs) — "shards", which older specs may still carry,
	// included.
	for _, field := range []string{"bogus", "shards"} {
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte(`{"name":"x","n":10,"k":2,"epochs":3,"`+field+`":4}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Fatalf("spec with unknown field %q: Load error %v does not name it", field, err)
		}
	}
}

// TestValidateRejects covers the spec validation paths.
func TestValidateRejects(t *testing.T) {
	ok := smokeSpec()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Engine = "warp" },
		func(s *Spec) { s.N = 2 },
		func(s *Spec) { s.K = 0 },
		func(s *Spec) { s.Epochs = 0 },
		func(s *Spec) { s.Policy = "banzai" },
		func(s *Spec) { s.Policy = "Full mesh" },
		func(s *Spec) { s.Sample = "bogus:5" },
		func(s *Spec) { s.Demand = &DemandModel{Kind: "chaos"} },
		func(s *Spec) { s.Churn = &ChurnProcess{Process: "warp"} },
		func(s *Spec) { s.Churn = &ChurnProcess{Process: "exp"} }, // missing means
		func(s *Spec) { s.Events = []Event{{Epoch: 99, Kind: LeaveWave, Frac: 0.1}} },
		func(s *Spec) { s.Events = []Event{{Epoch: 1, Kind: LeaveWave, Frac: 0}} },
		func(s *Spec) { s.Events = []Event{{Epoch: 1, Kind: Outage, Region: 9, Regions: 4}} },
		func(s *Spec) { s.Events = []Event{{Epoch: 1, Kind: "meteor"}} },
		func(s *Spec) {
			s.Demand = nil
			s.Events = []Event{{Epoch: 1, Kind: DemandFlip}}
		},
		func(s *Spec) {
			s.Events = []Event{{Epoch: 3, Kind: DemandFlip}, {Epoch: 1, Kind: DemandFlip}}
		},
	}
	for i, mutate := range cases {
		s := smokeSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

// TestValidateAcceptsPolicies: every full-engine policy name validates.
func TestValidateAcceptsPolicies(t *testing.T) {
	for _, name := range []string{"", "BR", "HybridBR", "k-Random", "k-Closest", "k-Regular"} {
		s := smokeSpec()
		s.Policy = name
		if err := s.Validate(); err != nil {
			t.Errorf("policy %q: %v", name, err)
		}
	}
}

// TestBuiltinsValid checks every built-in validates and compiles.
func TestBuiltinsValid(t *testing.T) {
	bs := Builtins()
	if len(bs) < 5 {
		t.Fatalf("only %d builtins", len(bs))
	}
	for _, s := range bs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if _, err := s.compile(); err != nil {
			t.Errorf("%s: compile: %v", s.Name, err)
		}
	}
	if _, ok := Builtin("leave-wave-10k"); !ok {
		t.Error("leave-wave-10k builtin missing")
	}
	if _, ok := Builtin("no-such"); ok {
		t.Error("bogus builtin found")
	}
}

// TestCompileWaves checks wave compilation respects membership state:
// a leave wave removes alive nodes, the outage empties exactly its
// region, and injected events keep the schedule valid.
func TestCompileWaves(t *testing.T) {
	s := Spec{
		Name: "waves", N: 80, K: 3, Seed: 1, Epochs: 10,
		Events: []Event{
			{Epoch: 2, Kind: LeaveWave, Frac: 0.25},
			{Epoch: 4, Kind: Outage, Region: 2, Regions: 4},
			{Epoch: 6, Kind: Heal, Region: 2, Regions: 4},
		},
	}
	comp, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	if comp.sched == nil {
		t.Fatal("membership events need a schedule")
	}
	if err := comp.sched.Validate(); err != nil {
		t.Fatal(err)
	}
	leaves, joins := 0, 0
	regionOff := map[int]bool{}
	for _, e := range comp.sched.Events {
		if e.On {
			joins++
		} else {
			leaves++
		}
		if e.Time == 4 {
			if e.On || e.Node < 40 || e.Node >= 60 {
				t.Fatalf("outage event outside region 2: %+v", e)
			}
			regionOff[e.Node] = true
		}
		if e.Time == 6 && !e.On {
			t.Fatalf("heal emitted a leave: %+v", e)
		}
	}
	// 25% of 80 alive leave in the wave, then the outage takes the
	// region's survivors (20 minus the wave's overlap with the region).
	if leaves < 30 || leaves > 40 {
		t.Fatalf("unexpected leave count: %d", leaves)
	}
	if joins == 0 {
		t.Fatal("heal emitted no joins")
	}
	if len(regionOff) == 0 {
		t.Fatal("outage emitted no events")
	}
	if comp.lastEvent != 6 {
		t.Fatalf("lastEvent = %v, want 6", comp.lastEvent)
	}
}

// TestRunBothEngines runs the smoke spec end-to-end on both engines.
func TestRunBothEngines(t *testing.T) {
	for _, engine := range []string{EngineScale, EngineFull} {
		m, err := Run(smokeSpec(), Options{Engine: engine, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if m.Engine != engine || m.Scenario != "smoke" {
			t.Fatalf("%s: bad identity %+v", engine, m)
		}
		if m.Epochs < 5 || len(m.CostPerEpoch) != m.Epochs || len(m.RewiresPerEpoch) != m.Epochs {
			t.Fatalf("%s: inconsistent series: epochs=%d costs=%d rewires=%d",
				engine, m.Epochs, len(m.CostPerEpoch), len(m.RewiresPerEpoch))
		}
		if m.Leaves == 0 || m.Joins == 0 {
			t.Fatalf("%s: events not applied: %+v", engine, m)
		}
		if m.ChurnRate <= 0 {
			t.Fatalf("%s: churn rate %v", engine, m.ChurnRate)
		}
		for e, c := range m.CostPerEpoch {
			if c < 0 {
				t.Fatalf("%s: epoch %d cost unobservable", engine, e)
			}
		}
	}
}

// TestMetricsByteIdenticalAcrossWorkers is the determinism contract of
// the whole harness: identical specs must produce byte-identical
// metric records at any worker count. Only the scale engine has workers;
// the full engine's goldens pin its bytes.
func TestMetricsByteIdenticalAcrossWorkers(t *testing.T) {
	a, err := Run(smokeSpec(), Options{Engine: EngineScale, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeSpec(), Options{Engine: EngineScale, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	pa := filepath.Join(t.TempDir(), "a.json")
	pb := filepath.Join(t.TempDir(), "b.json")
	if err := WriteMetricsJSON(pa, []*Metrics{a}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsJSON(pb, []*Metrics{b}); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(pa)
	db, _ := os.ReadFile(pb)
	if !bytes.Equal(da, db) {
		t.Fatalf("workers 1 vs 7 records differ:\n%s\n%s", da, db)
	}
}

// TestLeaveWaveExpectGate runs the smoke-sized acceptance scenario on
// the scale engine: the 5% leave wave must recover within 3 epochs
// (Run errors otherwise — this is the CI gate).
func TestLeaveWaveExpectGate(t *testing.T) {
	spec, ok := Builtin("leave-wave")
	if !ok {
		t.Fatal("leave-wave builtin missing")
	}
	m, err := Run(spec, Options{Engine: EngineScale, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.RecoveryEpochs < 0 || m.RecoveryEpochs > 3 {
		t.Fatalf("recovery epochs = %d", m.RecoveryEpochs)
	}
	if m.Leaves != 20 { // 5% of 400
		t.Fatalf("leaves = %d, want 20", m.Leaves)
	}
}

// TestExpectViolationErrors checks an unmeetable expectation fails the
// run.
func TestExpectViolationErrors(t *testing.T) {
	s := smokeSpec()
	s.Expect = &Expect{MaxRecoveryEpochs: 1, RecoverWithin: 1e-9}
	if _, err := Run(s, Options{Engine: EngineScale, Workers: 2}); err == nil {
		t.Fatal("impossible expectation passed")
	}
}

// TestWriteMetricsJSONSorted checks records land sorted by
// (scenario, engine) regardless of input order.
func TestWriteMetricsJSONSorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	recs := []*Metrics{
		{Scenario: "b", Engine: "scale"},
		{Scenario: "a", Engine: "scale"},
		{Scenario: "a", Engine: "full"},
	}
	if err := WriteMetricsJSON(path, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMetricsJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].Scenario != "a" || back[0].Engine != "full" ||
		back[1].Engine != "scale" || back[2].Scenario != "b" {
		t.Fatalf("unsorted: %+v", back)
	}
}

// TestLoadDir loads a directory of specs in filename order.
func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	a := smokeSpec()
	a.Name = "alpha"
	b := smokeSpec()
	b.Name = "beta"
	if err := b.Save(filepath.Join(dir, "2-beta.json")); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(filepath.Join(dir, "1-alpha.json")); err != nil {
		t.Fatal(err)
	}
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "alpha" || specs[1].Name != "beta" {
		t.Fatalf("bad dir load: %+v", specs)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestCIScenarioSpecsValid guards the committed CI matrix specs: every
// spec in ci/scenarios must parse, validate and compile, and the four
// engine-agnostic smoke scenarios must be present.
func TestCIScenarioSpecsValid(t *testing.T) {
	dir := filepath.Join("..", "..", "ci", "scenarios")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no ci/scenarios directory: %v", err)
	}
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	both := 0
	for _, s := range specs {
		names[s.Name] = true
		if s.Engine == "" {
			both++
		}
		if _, err := s.compile(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, want := range []string{"flash-crowd", "churn-storm", "regional-outage", "demand-flip", "leave-wave"} {
		if !names[want] {
			t.Errorf("CI matrix is missing the %s spec", want)
		}
	}
	if both < 4 {
		t.Errorf("only %d specs run on both engines, the matrix promises >= 4", both)
	}
}

// Save writes the spec as indented JSON.
func (s Spec) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
