package scenario

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"egoist/internal/churn"
)

// buildEgoistd compiles the real daemon for the deployment tests. The
// lab engine is the one engine that cannot run without a binary.
func buildEgoistd(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "egoistd")
	out, err := exec.Command(goTool, "build", "-o", bin, "egoist/cmd/egoistd").CombinedOutput()
	if err != nil {
		t.Fatalf("go build egoistd: %v\n%s", err, out)
	}
	return bin
}

// TestRunLabSmall deploys a real 10-process fleet through a leave wave
// and checks the whole pipeline: PEX bootstrap, victim kills, per-epoch
// measurement, and the metrics record's lab half. The convergence bound
// is deliberately loose — a 10-node overlay's equilibria are coarse;
// the tight 10% gate runs in CI at n=20 and in the acceptance run at
// n=50.
func TestRunLabSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys a process fleet")
	}
	bin := buildEgoistd(t)
	spec := Spec{
		Name: "lab-unit", Engine: "scale",
		N: 10, K: 2, Seed: 7, Epochs: 3,
		Sample: "demand:8",
		Events: []Event{{Epoch: 1.5, Kind: LeaveWave, Frac: 0.2}},
	}
	timeline := filepath.Join(t.TempDir(), "fleet.json")
	m, err := RunLab(spec, LabOptions{
		Bin: bin, Epoch: 300 * time.Millisecond, Bound: 0.6,
		MetricsJSON: timeline, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("RunLab: %v", err)
	}
	if m.Engine != EngineLab {
		t.Errorf("engine %q, want %q", m.Engine, EngineLab)
	}
	lab := m.Lab
	if lab == nil {
		t.Fatal("metrics record has no lab half")
	}
	if lab.Processes != 10 {
		t.Errorf("processes %d, want 10", lab.Processes)
	}
	if lab.Kills != 2 || m.Leaves != 2 {
		t.Errorf("kills %d leaves %d, want 2/2 (0.2 of 10)", lab.Kills, m.Leaves)
	}
	if len(m.CostPerEpoch) < spec.Epochs || len(m.CostPerEpoch) != m.Epochs {
		t.Errorf("cost series length %d (epochs %d), want >= %d and equal",
			len(m.CostPerEpoch), m.Epochs, spec.Epochs)
	}
	if len(m.RewiresPerEpoch) != len(m.CostPerEpoch) {
		t.Errorf("rewire series length %d != cost series %d",
			len(m.RewiresPerEpoch), len(m.CostPerEpoch))
	}
	if lab.LabFinalCost <= 0 || lab.SimFinalCost <= 0 {
		t.Errorf("final costs lab=%v sim=%v, want both positive", lab.LabFinalCost, lab.SimFinalCost)
	}
	if lab.BootstrapSeconds <= 0 || lab.WallSeconds <= lab.BootstrapSeconds {
		t.Errorf("clock bookkeeping: bootstrap=%v wall=%v", lab.BootstrapSeconds, lab.WallSeconds)
	}
	checkDecisionTime(t, timeline)
}

// checkDecisionTime reads a fleet timeline and requires every daemon
// that has run an epoch to report the time its epochs spent deciding.
func checkDecisionTime(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fleet timeline: %v", err)
	}
	var dump struct {
		Samples []LabMetricsSample `json:"samples"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("fleet timeline: %v", err)
	}
	checked := 0
	for _, s := range dump.Samples {
		for id, series := range s.Nodes {
			if series["egoistd_epochs_total"] == 0 {
				continue
			}
			checked++
			if us, ok := series["egoistd_epoch_decision_us_total"]; !ok || us <= 0 {
				t.Fatalf("epoch %d node %d: %v epochs but decision time %v (present %v)",
					s.Epoch, id, series["egoistd_epochs_total"], us, ok)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no daemon in the timeline ran an epoch")
	}
}

// TestRunLabRejects pins the misconfigurations the lab engine must
// refuse up front, before any process is spawned.
func TestRunLabRejects(t *testing.T) {
	base := Spec{Name: "r", N: 10, K: 2, Seed: 1, Epochs: 3}
	fakeBin := filepath.Join(t.TempDir(), "egoistd")
	if err := os.WriteFile(fakeBin, []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		opts LabOptions
	}{
		{"no binary", func(*Spec) {}, LabOptions{}},
		{"missing binary", func(*Spec) {}, LabOptions{Bin: filepath.Join(t.TempDir(), "nope")}},
		{"background churn", func(s *Spec) {
			s.Churn = &ChurnProcess{Process: "exp", OnMean: 4, OffMean: 1}
		}, LabOptions{Bin: fakeBin}},
		{"non-uniform demand", func(s *Spec) {
			s.Demand = &DemandModel{Kind: "hotspot"}
		}, LabOptions{Bin: fakeBin}},
		{"demand flip event", func(s *Spec) {
			s.Events = []Event{{Epoch: 1, Kind: DemandFlip}}
		}, LabOptions{Bin: fakeBin}},
	}
	for _, tc := range cases {
		spec := base
		tc.mut(&spec)
		if _, err := RunLab(spec, tc.opts); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

// TestLowerLabEventsDeterministic pins the victim-selection contract:
// the lab must draw the exact victims the sim leg's compile() draws, so
// both legs play one membership trajectory. compile() injects each
// wave's victims, in order, as single-node events at the wave's epoch.
func TestLowerLabEventsDeterministic(t *testing.T) {
	spec := Spec{
		Name: "d", N: 40, K: 3, Seed: 2008, Epochs: 6,
		Events: []Event{
			{Epoch: 2.3, Kind: LeaveWave, Frac: 0.2},
			{Epoch: 3.1, Kind: JoinWave, Frac: 0.1},
			{Epoch: 4.0, Kind: Outage, Region: 1},
			{Epoch: 5.0, Kind: Heal, Region: 1},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	on, events, last, err := spec.lowerLabEvents()
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(on, c.sched.InitialOn) || last != c.lastEvent {
		t.Fatalf("initial membership or last event differ from compile(): last %v vs %v", last, c.lastEvent)
	}
	var lab []churn.Event
	for _, ev := range events {
		turnOn := ev.kind == JoinWave || ev.kind == Heal
		for _, v := range ev.victims {
			lab = append(lab, churn.Event{Time: ev.at, Node: v, On: turnOn})
		}
	}
	if !reflect.DeepEqual(lab, c.sched.Events) {
		t.Fatalf("lab victims differ from compile()'s events:\n lab     %v\n compile %v", lab, c.sched.Events)
	}
	if len(events) != 4 || last != 5.0 {
		t.Fatalf("timeline shape: %+v last=%v", events, last)
	}
	if want := 8; len(events[0].victims) != want { // 0.2 of 40 alive
		t.Errorf("leave wave picked %d victims, want %d", len(events[0].victims), want)
	}
	spec.Events = append(spec.Events, Event{Epoch: 5.5, Kind: DemandFlip})
	if _, _, _, err := spec.lowerLabEvents(); err == nil {
		t.Error("a demand flip lowered onto the lab, which measures uniform demand only")
	}
}

// TestParseSampleClamped pins the rescue that keeps shrunken specs
// valid: a sample budget wider than the new roster clamps to n-2.
func TestParseSampleClamped(t *testing.T) {
	got, err := parseSampleClamped("demand:60", 12)
	if err != nil {
		t.Fatal(err)
	}
	if got != "demand:10" {
		t.Errorf("clamped spec %q, want demand:10", got)
	}
	if _, err := parseSampleClamped("bogus", 12); err == nil {
		t.Error("bogus sampling spec accepted")
	}
}
