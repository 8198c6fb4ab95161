package egoist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"
	"time"

	"egoist/internal/churn"
	"egoist/internal/topology"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := Simulate(SimOptions{N: 20, K: 3, Seed: 1, WarmEpochs: 4, MeasureEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCost <= 0 || math.IsNaN(res.MeanCost) {
		t.Fatalf("MeanCost = %v", res.MeanCost)
	}
	if len(res.FinalWiring) != 20 {
		t.Fatalf("FinalWiring size %d", len(res.FinalWiring))
	}
}

func TestSimulateRejectsUnknownKinds(t *testing.T) {
	if _, err := Simulate(SimOptions{N: 10, K: 2, Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Simulate(SimOptions{N: 10, K: 2, Metric: "nope"}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := Simulate(SimOptions{N: 10, K: 2, CheaterIDs: []int{99}}); err == nil {
		t.Fatal("out-of-range cheater accepted")
	}
}

func TestCompareNormalizesAgainstBR(t *testing.T) {
	cmp, err := Compare(SimOptions{N: 20, K: 2, Seed: 3, WarmEpochs: 4, MeasureEpochs: 3},
		KRandom, KRegular)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Normalized[BR]; math.Abs(got-1) > 1e-12 {
		t.Fatalf("BR normalized = %v, want 1", got)
	}
	for _, p := range []PolicyKind{KRandom, KRegular} {
		if cmp.Normalized[p] < 1 {
			t.Fatalf("%v normalized %.3f < 1; BR should win on delay", p, cmp.Normalized[p])
		}
	}
}

func TestCompareBandwidthRatiosBelowOne(t *testing.T) {
	cmp, err := Compare(SimOptions{N: 18, K: 2, Seed: 4, Metric: Bandwidth, WarmEpochs: 4, MeasureEpochs: 3},
		KRandom)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Normalized[KRandom] > 1 {
		t.Fatalf("bandwidth ratio %v > 1; BR should have more bandwidth", cmp.Normalized[KRandom])
	}
}

func TestMakeChurnAndRate(t *testing.T) {
	s, err := MakeChurn(20, 50, 10, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ChurnRate(s, 50) <= 0 {
		t.Fatal("expected positive churn rate")
	}
}

func TestSimulateWithCheaters(t *testing.T) {
	res, err := Simulate(SimOptions{N: 20, K: 2, Seed: 5, WarmEpochs: 4, MeasureEpochs: 3, Cheaters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCost <= 0 {
		t.Fatalf("MeanCost = %v", res.MeanCost)
	}
}

func TestSampleJoinRatios(t *testing.T) {
	res, err := SampleJoin(SampleJoinOptions{N: 50, K: 3, SampleSize: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Ratio["BR-no-sampling"]; got != 1 {
		t.Fatalf("baseline ratio = %v", got)
	}
	for name, r := range res.Ratio {
		if r <= 0 || math.IsNaN(r) {
			t.Fatalf("ratio[%s] = %v", name, r)
		}
	}
}

func TestSampleJoinUnknownGraph(t *testing.T) {
	for _, g := range []PolicyKind{"nope", HybridBR, FullMesh} {
		if _, err := SampleJoin(SampleJoinOptions{N: 30, K: 3, SampleSize: 8, Graph: g}); err == nil {
			t.Fatalf("base graph %q accepted", g)
		}
	}
}

func TestMultipathAndDisjointFacade(t *testing.T) {
	u, err := NewUnderlay(14, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimOptions{N: 14, K: 3, Seed: 8, Metric: Bandwidth, WarmEpochs: 3, MeasureEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := MultipathGain(u, res.FinalWiring)
	if err != nil {
		t.Fatal(err)
	}
	if mp.ParallelGain < 1 || mp.RedirectionGain < mp.ParallelGain-1e-9 {
		t.Fatalf("gains inconsistent: %+v", mp)
	}
	dp, err := DisjointPaths(res.FinalWiring)
	if err != nil {
		t.Fatal(err)
	}
	if dp.MeanPaths <= 0 || dp.Pairs != 14*13 {
		t.Fatalf("disjoint report %+v", dp)
	}
}

func TestMultipathNilUnderlay(t *testing.T) {
	if _, err := MultipathGain(nil, nil); err == nil {
		t.Fatal("nil underlay accepted")
	}
}

func TestStartLocalOverlayLifecycle(t *testing.T) {
	lo, err := StartLocalOverlay(LiveOptions{N: 6, K: 2, Epoch: 60 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lo.Stop()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for i := 0; i < lo.N(); i++ {
			if lo.Known(i) < lo.N()-1 {
				done = false
				break
			}
		}
		if done {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("live overlay never reached full mutual knowledge")
}

func TestStartLocalOverlayValidation(t *testing.T) {
	if _, err := StartLocalOverlay(LiveOptions{N: 1, K: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := StartLocalOverlay(LiveOptions{N: 5, K: 1, Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSimulateOverDelayTrace(t *testing.T) {
	m := topology.Waxman(16, 120, newRand(3))
	res, err := Simulate(SimOptions{
		N: 16, K: 3, Seed: 2, WarmEpochs: 4, MeasureEpochs: 3, Delays: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCost <= 0 || res.MeanCost >= 1e6 {
		t.Fatalf("trace-driven cost %v", res.MeanCost)
	}
	// Size mismatch must be rejected.
	if _, err := Simulate(SimOptions{N: 10, K: 2, Delays: m}); err == nil {
		t.Fatal("trace size mismatch accepted")
	}
}

func TestLoadDelayTraceMissing(t *testing.T) {
	if _, err := LoadDelayTrace("/nonexistent/trace.txt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPolicyAndMetricEnumerations(t *testing.T) {
	if len(Policies()) != 6 {
		t.Fatalf("Policies() = %v", Policies())
	}
	if len(Metrics()) != 4 {
		t.Fatalf("Metrics() = %v", Metrics())
	}
	if !Bandwidth.HigherIsBetter() || DelayPing.HigherIsBetter() {
		t.Fatal("HigherIsBetter wrong")
	}
}

func TestScaleRunWithChurn(t *testing.T) {
	// A public-API churn run: 10% of a 150-node overlay leaves at epoch
	// 2.5; the run must report the events and every survivor must end
	// wired to alive targets only.
	sched := &churn.Schedule{N: 150, InitialOn: make([]bool, 150)}
	for i := range sched.InitialOn {
		sched.InitialOn[i] = true
	}
	dead := map[int]bool{}
	for v := 0; v < 150; v += 10 {
		sched.Events = append(sched.Events, churn.Event{Time: 2.5, Node: v, On: false})
		dead[v] = true
	}
	res, err := ScaleRun(ScaleOptions{
		N: 150, K: 3, Seed: 9, Sample: "uniform:25", Epochs: 6, Workers: 2,
		Churn: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaves != len(dead) {
		t.Fatalf("leaves = %d, want %d", res.Leaves, len(dead))
	}
	sawEvent := false
	for _, ep := range res.PerEpoch {
		if ep.Leaves > 0 {
			sawEvent = true
			if ep.Alive != 150-len(dead) {
				t.Fatalf("alive after wave = %d, want %d", ep.Alive, 150-len(dead))
			}
		}
	}
	if !sawEvent {
		t.Fatal("no epoch recorded the wave")
	}
	for i, w := range res.Wiring {
		if dead[i] {
			continue
		}
		if len(w) == 0 {
			t.Fatalf("alive node %d ended unwired", i)
		}
		for _, v := range w {
			if dead[v] {
				t.Fatalf("node %d wired to departed node %d", i, v)
			}
		}
	}
}

// simulateGoldenDigests pin Simulate for every PolicyKind at n = 20,
// which covers the facade's policy defaults: HybridBR's two donated links
// and the full mesh's K = N-1.
var simulateGoldenDigests = map[PolicyKind]string{
	BR:       "ac14f2c66470f393b25c45332fde2f8e792371f108203b1a514415c8514fc286",
	KRandom:  "90ae78909feede47bc29271741f5c828c4df5b9838b2cad4994d03f526665002",
	KClosest: "da8d45ee535ef6a9cda25f64b8ecb0a5f548705e5ac9f84ead232fb645cefc7b",
	KRegular: "7a384ff25f6251e8e82db5e2719fcc88576434123a7a89de46a4f6b013336bb9",
	HybridBR: "0918636a43696eb130b6b307526629a41c14ab2b0bf48b2080d56c4a0556d20a",
	FullMesh: "75a3d0f8b8bfbf8af6dcf1c7eb712b565895cbe27a65a16b9ea236f8f5ea744c",
}

func TestSimulateGoldenDigest(t *testing.T) {
	for _, p := range Policies() {
		t.Run(string(p), func(t *testing.T) {
			res, err := Simulate(SimOptions{
				N: 20, K: 3, Seed: 9, Policy: p,
				WarmEpochs: 3, MeasureEpochs: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			for _, x := range append([]float64{res.MeanCost, res.CI95, res.MeanEfficiency, res.SteadyRewires, res.LSABits}, res.PerNodeCost...) {
				put(math.Float64bits(x))
			}
			for _, r := range res.RewiresPerEpoch {
				put(uint64(r))
			}
			for _, ws := range res.FinalWiring {
				put(uint64(len(ws)))
				for _, v := range ws {
					put(uint64(v))
				}
			}
			cats := make([]string, 0, len(res.ProbeBits))
			for c := range res.ProbeBits {
				cats = append(cats, c)
			}
			sort.Strings(cats)
			for _, c := range cats {
				h.Write([]byte(c))
				put(math.Float64bits(res.ProbeBits[c]))
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), simulateGoldenDigests[p]; got != want {
				t.Fatalf("Simulate digest drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}
