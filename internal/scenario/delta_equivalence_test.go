package scenario

import (
	"fmt"
	"testing"

	"egoist/internal/plane"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// This file is the delta-publication correctness suite: for every
// committed CI scenario spec, a sub-epoch Patch chain driven by the
// scale engine's OnPublish stream must stay digest-identical to a
// from-scratch Compile at every single publication, at any worker
// count — and the publication digest stream itself must be
// byte-identical across worker counts. The EpochFinal publications —
// all a per-epoch subscriber (publish mode "epoch", egoist-route's
// converge) compiles — must be the bootstrap plus one per epoch, in
// order; being publications, each one's Compile is checked against the
// chain's tip like every other.

// deltaDigestStream runs one spec on the scale engine with a delta
// subscriber attached: every publication extends the Patch chain,
// byte-compares its digest against a fresh Compile of the same wiring,
// and records it. A couple of routes are warmed per publication so the
// row-cache carry-over path runs against real churn, not just the
// synthetic plane tests.
func deltaDigestStream(t *testing.T, spec Spec, workers int) []string {
	t.Helper()
	sampleStr := spec.Sample
	if sampleStr == "" {
		t.Fatalf("spec %s: CI specs pin their sampling", spec.Name)
	}
	sample, err := sampling.ParseSpec(sampleStr)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := spec.compile()
	if err != nil {
		t.Fatal(err)
	}
	// The engine's own default oracle, constructed explicitly (same
	// constructor, same arguments) so Compile prices arcs identically.
	net, err := underlay.NewLite(spec.N, spec.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	var stream []string
	var cur *plane.Snapshot
	var seq int64
	var finals []int
	cfg := sim.ScaleConfig{
		N: spec.N, K: spec.K, Seed: spec.Seed,
		Sample: sample, Epsilon: spec.Epsilon,
		MaxEpochs: spec.Epochs, Workers: workers,
		StaggerBatches: spec.Stagger,
		Churn:          comp.sched,
		DemandAt:       comp.demandAt,
		Net:            net,
		OnPublish: func(pub sim.Publication) {
			if pub.Full {
				cur = plane.Compile(seq, pub.Wiring, pub.Active, net, plane.Options{})
			} else {
				cur = cur.Patch(seq, pub.Changed, pub.Wiring, pub.Active)
			}
			seq++
			fresh := plane.Compile(seq, pub.Wiring, pub.Active, net, plane.Options{})
			got, want := cur.Digest(), fresh.Digest()
			if got != want {
				t.Fatalf("spec %s workers=%d: patched chain diverged from Compile at publication (%d,%d): %x vs %x",
					spec.Name, workers, pub.Epoch, pub.SubRound, got, want)
			}
			stream = append(stream, fmt.Sprintf("%d %d %x", pub.Epoch, pub.SubRound, got))
			if pub.EpochFinal() {
				finals = append(finals, pub.Epoch)
			}
			if n := cur.N(); n >= 2 {
				// Warm two deterministic rows for the next Patch to carry
				// or invalidate.
				src := int(seq*13) % n
				cur.RouteCost(src, (src+1)%n)
				cur.RouteCost((src+7)%n, src)
			}
		},
	}
	if len(spec.Events) > 0 {
		cfg.ConvergedFrac = -1
	}
	res, err := sim.RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != res.Epochs+1 {
		t.Fatalf("spec %s: %d epoch-final publications over %d epochs, want the bootstrap plus one per epoch",
			spec.Name, len(finals), res.Epochs)
	}
	for i, epoch := range finals {
		if epoch != i-1 {
			t.Fatalf("spec %s: epoch-final publications out of order: %v", spec.Name, finals)
		}
	}
	return stream
}

// TestDeltaPatchDigestEquivalence pins the tentpole contract across
// the whole committed scenario corpus at workers {1,4}.
func TestDeltaPatchDigestEquivalence(t *testing.T) {
	for _, spec := range ciSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ref := deltaDigestStream(t, spec, 1)
			got := deltaDigestStream(t, spec, 4)
			if len(got) != len(ref) {
				t.Fatalf("workers=4: %d publications vs %d at workers=1", len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("workers=4: publication %d digest diverged:\n%s\n%s", i, got[i], ref[i])
				}
			}
		})
	}
}
