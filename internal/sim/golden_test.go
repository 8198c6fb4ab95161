package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"egoist/internal/cheat"
	"egoist/internal/core"
	"egoist/internal/sampling"
)

// This file pins the scale engine's trajectory across refactors. The
// digests below are the SHA-256 of the wall-clock-stripped ScaleResult
// JSON, recorded at PR 7 and reproduced by every engine refactor since.
// A digest change here means the dynamics changed for existing users,
// which is exactly what the no-regression acceptance criterion forbids;
// do not regenerate these values to make a refactor pass.

// goldenConfigs returns the pinned configurations. The churn-heavy one
// exercises every serial mutation path (leaves, rejoins, fresh joins,
// demand flips, directory repair between sub-rounds); the static one is
// the plain convergence path most callers run.
func goldenConfigs() map[string]ScaleConfig {
	return map[string]ScaleConfig{
		"churn-heavy": churnHeavyConfig(2),
		"static": {
			N: 200, K: 3, Seed: 5,
			Sample:    sampling.Spec{Strategy: sampling.Demand, M: 40},
			MaxEpochs: 10, Workers: 2,
		},
	}
}

// goldenDigests are the pre-PR-7 reference digests (see file comment).
var goldenDigests = map[string]string{
	"churn-heavy": "ea40cffbb49f7086f7dffebb33b99e687c5046815cf8bf2b4ba57992d82fece0",
	"static":      "3ff027fa3381426679d273c8914cc24aa33c55e2d22cf812061b49c783c29db6",
}

// TestScaleGoldenDigest runs each pinned config and compares the result
// digest against the pre-refactor reference.
func TestScaleGoldenDigest(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			res, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(resultJSON(t, res))
			got := hex.EncodeToString(sum[:])
			if want := goldenDigests[name]; got != want {
				t.Fatalf("ScaleResult digest drifted from the pinned engine trajectory:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// fullGoldenConfigs returns the full engine's pinned configurations, one
// per path through its exact re-wiring loop: the speculative pool under
// the additive and the bottleneck algebra, the ε gate, churn with
// HybridBR's backbone repair and immediate victims, and the
// heuristic-policy path with the connectivity fallback and preferences.
func fullGoldenConfigs() map[string]Config {
	base := func(p core.Policy, workers int) Config {
		return Config{
			N: 30, K: 3, Seed: 13, Metric: DelayPing, Policy: p,
			WarmEpochs: 3, MeasureEpochs: 4, Workers: workers,
		}
	}
	eps := base(core.BRPolicy{}, 3)
	eps.Epsilon = 0.1
	hybrid := base(core.BRPolicy{Donated: 2}, 2)
	hybrid.N = 36
	hybrid.Churn = testChurn(hybrid.N)
	hybrid.Immediate = true
	bw := base(core.BRPolicy{}, 2)
	bw.Metric = Bandwidth
	bw.Cheat = cheat.Population(bw.N, 3, 2, rand.New(rand.NewSource(4)))
	closest := base(core.KClosest{}, 2)
	closest.PrefAt = staticPref(func(i, j int) float64 { return 1 + float64((i*j)%7) })
	// k-Random at K = 2 under churn: rejoiners wire at random, so the
	// connectivity fallback has disconnections to repair.
	random := base(core.KRandom{}, 2)
	random.K = 2
	random.Churn = testChurn(random.N)
	return map[string]Config{
		"BR/delay-ping":        base(core.BRPolicy{}, 2),
		"BR/epsilon":           eps,
		"HybridBR/churn/immed": hybrid,
		"BR/bandwidth/cheat":   bw,
		"kClosest/cycle/pref":  closest,
		"kRandom/cycle":        random,
	}
}

// fullGoldenDigests were recorded before the graph kernels these runs
// exercise (the repaired forest, the APSP rows) were last rewritten; the
// same rule as goldenDigests applies. One deliberate change: kRandom/cycle
// was re-recorded when core.Adopt began re-wiring a stub — a re-joiner's
// single bootstrap link — into the full policy wiring at the node's next
// epoch; before that, a re-joined k-Random node kept one link for good.
var fullGoldenDigests = map[string]string{
	"BR/delay-ping":        "b6da03acc429b5c6e33e50e3acb9c7bfc3a23863a2b737af6506ced637ee5cfe",
	"BR/epsilon":           "c6c65be17cdf2d3e3b40060d2756cf61c084116328a7533cf35a8a2bc10eaba9",
	"HybridBR/churn/immed": "5a53b2773f34d4ddd525f57a9f5913c0ab18b1c8241446091fb5ade7ccba3080",
	"BR/bandwidth/cheat":   "f4235a2da5cbb29142ec8554a4e831651cbb6229af2d67832b007d84d2ed0237",
	"kClosest/cycle/pref":  "14cee8c6eee61c0d0c6cd736c7ae4a804b2141fe748d3dcb2de754eb3edc9f10",
	"kRandom/cycle":        "64f59edc1171b126304ea5d937cd09b87d987eb8bc0b93e36013b7bd2c916666",
}

// fullDigest hashes what a full-engine run decided and measured: the
// final wiring, the per-epoch re-wiring counts and the exact bits of the
// per-node and per-epoch series (NaN marks never-alive nodes and empty
// epochs, which rules out plain JSON).
func fullDigest(res *Result) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	put(uint64(len(res.FinalWiring)))
	for _, ws := range res.FinalWiring {
		put(uint64(len(ws)))
		for _, v := range ws {
			put(uint64(v))
		}
	}
	rewires := res.Rewires.PerEpoch()
	put(uint64(len(rewires)))
	for _, r := range rewires {
		put(uint64(r))
	}
	for _, xs := range [][]float64{res.PerNodeCost, res.PerNodeEfficiency, res.PerEpochCost} {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFullGoldenDigest pins the full engine's trajectory the way
// TestScaleGoldenDigest pins the scale engine's.
func TestFullGoldenDigest(t *testing.T) {
	for name, cfg := range fullGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fullDigest(res), fullGoldenDigests[name]; got != want {
				t.Fatalf("Result digest drifted from the pinned engine trajectory:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// newcomerGoldenConfigs pins the Sect. 5 sampling experiment on each
// base-graph policy at n = 60, k = 3, one seed.
func newcomerGoldenConfigs() map[string]NewcomerConfig {
	return map[string]NewcomerConfig{
		"BR":        newcomerCfg(nil, 10),
		"k-Random":  newcomerCfg(core.KRandom{}, 10),
		"k-Regular": newcomerCfg(core.KRegular{}, 10),
		"k-Closest": newcomerCfg(core.KClosest{}, 10),
	}
}

// newcomerGoldenDigests follow the rule of goldenDigests.
var newcomerGoldenDigests = map[string]string{
	"BR":        "795c9fd136600c67e783b38887e9e1acad9a20c018093884eb802ba5a915b730",
	"k-Random":  "e4a7e6577d3b32de9e16227d112492fe30ba4edf1d4fad48c61fc0d4ab453bf9",
	"k-Regular": "4cd542a7e5fa5c7d7e22fa11df438455709bbe0fe29018e92d37ac04bd5d5f30",
	"k-Closest": "4fcfd8b4ed77acf9eaaf55cb7f5f1bae06bf03e12942e316d943b5e2c9a54f52",
}

// TestNewcomerGoldenDigest hashes the exact bits of the newcomer's cost
// under every strategy, in strategy order.
func TestNewcomerGoldenDigest(t *testing.T) {
	for name, cfg := range newcomerGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			res, err := RunNewcomer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for s := NewcomerKRandom; s <= NewcomerBRFull; s++ {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(res.Cost[s])))
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), newcomerGoldenDigests[name]; got != want {
				t.Fatalf("newcomer cost digest drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// growBaseGoldenDigests pin the Sect. 5 base overlay itself, one per
// growth policy at n = 60, k = 3, under the rule of goldenDigests.
var growBaseGoldenDigests = map[string]string{
	"BR":        "0ccbebb3a994b7e55e5a81bd854122d72f343bbf01b0ac97bfd8ca28ad3bc3e1",
	"k-Random":  "86022b3ea5befefbf8fd0dc4329c8e29691a24fbe42db690901b53c9766979f2",
	"k-Regular": "6329a468b1cec47e9a3f84c68cc99f89fad5509d8a50eeb4ffaf70e9e97d9168",
	"k-Closest": "6918c307f8e36cea77c822fd2782bb5ad30cd8acc985f74e6b9984910b2b6e05",
}

// TestGrowBaseGoldenDigest hashes every arc of the grown base graph —
// tail, head and the weight's bits, in Out order — so a change in how the
// base grows or settles shows here even when the newcomer's costs hide it.
func TestGrowBaseGoldenDigest(t *testing.T) {
	for name, cfg := range newcomerGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			g, err := GrowBase(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			for u := 0; u < g.N(); u++ {
				for _, a := range g.Out(u) {
					put(uint64(u))
					put(uint64(a.To))
					put(math.Float64bits(a.W))
				}
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), growBaseGoldenDigests[name]; got != want {
				t.Fatalf("base graph digest drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}
