package sim

import (
	"fmt"
	"strings"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/core"
	"egoist/internal/sampling"
)

// pubRecorder is the test's model of a delta subscriber: it replays
// every Publication onto a shadow copy of the overlay and fails the
// test the moment a changed set misses a row — if applying exactly the
// Changed rows does not reproduce the engine's wiring and membership
// bit-for-bit, the delta stream is unusable for incremental
// publication. It also keeps an interleaved event log so the ordering
// contract (bootstrap Full strictly first, lexicographic (epoch,
// sub-round) order, epoch-final delta before OnEpoch) can be pinned.
type pubRecorder struct {
	t        *testing.T
	wiring   [][]int
	active   []bool
	log      []string
	rounds   int
	lastE    int
	lastSub  int
	nonEmpty int
	booted   bool
}

func newPubRecorder(t *testing.T) *pubRecorder {
	return &pubRecorder{t: t, lastE: -2}
}

func (r *pubRecorder) onEpoch(epoch int, wiring [][]int, active []bool) {
	r.log = append(r.log, fmt.Sprintf("epoch %d", epoch))
}

func (r *pubRecorder) onPublish(pub Publication) {
	t := r.t
	t.Helper()
	if pub.Rounds <= 0 {
		t.Fatalf("publication with Rounds=%d", pub.Rounds)
	}
	if !r.booted {
		if !pub.Full || pub.Epoch != -1 || pub.SubRound != -1 {
			t.Fatalf("first publication must be the bootstrap Full (-1,-1), got full=%v (%d,%d)",
				pub.Full, pub.Epoch, pub.SubRound)
		}
		r.rounds = pub.Rounds
		r.wiring = make([][]int, len(pub.Wiring))
		for u, row := range pub.Wiring {
			r.wiring[u] = append([]int(nil), row...)
		}
		r.active = append([]bool(nil), pub.Active...)
		r.booted = true
		r.log = append(r.log, "pub bootstrap")
		return
	}
	if pub.Full {
		t.Fatalf("second Full publication at (%d,%d)", pub.Epoch, pub.SubRound)
	}
	if pub.Rounds != r.rounds {
		t.Fatalf("Rounds flipped %d -> %d", r.rounds, pub.Rounds)
	}
	if pub.SubRound < 0 || pub.SubRound > pub.Rounds {
		t.Fatalf("sub-round %d out of [0,%d]", pub.SubRound, pub.Rounds)
	}
	if pub.Epoch < r.lastE || (pub.Epoch == r.lastE && pub.SubRound <= r.lastSub) {
		t.Fatalf("publication order violated: (%d,%d) after (%d,%d)",
			pub.Epoch, pub.SubRound, r.lastE, r.lastSub)
	}
	r.lastE, r.lastSub = pub.Epoch, pub.SubRound

	// Replay the delta, then demand the shadow matches the engine
	// exactly: any divergence means Changed missed a mutated row.
	prev := -1
	for _, u := range pub.Changed {
		if u <= prev || u < 0 || u >= len(r.wiring) {
			t.Fatalf("(%d,%d): changed set not ascending in range: %v", pub.Epoch, pub.SubRound, pub.Changed)
		}
		prev = u
		r.wiring[u] = append(r.wiring[u][:0], pub.Wiring[u]...)
		r.active[u] = pub.Active[u]
	}
	if len(pub.Changed) > 0 {
		r.nonEmpty++
	}
	for u := range r.wiring {
		if r.active[u] != pub.Active[u] {
			t.Fatalf("(%d,%d): membership of %d flipped outside the changed set", pub.Epoch, pub.SubRound, u)
		}
		if !sameWiring(r.wiring[u], pub.Wiring[u]) {
			t.Fatalf("(%d,%d): wiring of %d changed outside the changed set: have %v want %v",
				pub.Epoch, pub.SubRound, u, r.wiring[u], pub.Wiring[u])
		}
	}
	r.log = append(r.log, fmt.Sprintf("pub %d %d", pub.Epoch, pub.SubRound))
}

// checkLog pins the interleaving contract against OnEpoch for epochs
// 0..maxEpoch: bootstrap order is OnEpoch(-1) then the Full
// publication, every epoch publishes sub-rounds 0..Rounds in order, and
// the epoch-final drain delta (sub-round == Rounds) fires immediately
// before that epoch's OnEpoch.
func (r *pubRecorder) checkLog(maxEpoch int) {
	t := r.t
	t.Helper()
	if len(r.log) < 2 || r.log[0] != "epoch -1" || r.log[1] != "pub bootstrap" {
		t.Fatalf("bootstrap ordering wrong: log starts %v", r.log[:min(3, len(r.log))])
	}
	want := []string{"epoch -1", "pub bootstrap"}
	for e := 0; e <= maxEpoch; e++ {
		for s := 0; s <= r.rounds; s++ {
			want = append(want, fmt.Sprintf("pub %d %d", e, s))
		}
		want = append(want, fmt.Sprintf("epoch %d", e))
	}
	if got := strings.Join(r.log, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("publication/epoch interleaving diverged from the contract:\ngot:\n%s\nwant:\n%s",
			got, strings.Join(want, "\n"))
	}
}

// TestScalePublicationOrdering is the scale engine's sub-epoch
// publication contract: bootstrap Full strictly first, one delta per
// stagger sub-round plus the epoch-final drain, all strictly ordered,
// each delta's changed set sufficient to replay the overlay exactly —
// under live churn in both directions.
func TestScalePublicationOrdering(t *testing.T) {
	const n, epochs = 120, 4
	sched := emptySchedule(n)
	for v := 0; v < n; v += 9 {
		sched.Events = append(sched.Events, churn.Event{Time: 1 + float64(v)/float64(n), Node: v, On: false})
	}
	for v := 3; v < n; v += 11 {
		sched.Events = append(sched.Events, churn.Event{Time: 2 + float64(v)/float64(n), Node: v, On: true})
	}
	rec := newPubRecorder(t)
	res, err := RunScale(ScaleConfig{
		N: n, K: 3, Seed: 17, MaxEpochs: epochs,
		Sample:    sampling.Spec{Strategy: sampling.Demand, M: 25},
		Churn:     sched,
		OnEpoch:   rec.onEpoch,
		OnPublish: rec.onPublish,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.checkLog(epochs - 1)
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("schedule did not churn: joins=%d leaves=%d", res.Joins, res.Leaves)
	}
	if rec.nonEmpty == 0 {
		t.Fatal("every delta was empty — adoptions and churn never reached the changed sets")
	}
}

// TestScalePublicationDeterministic: the publication stream itself is
// part of the byte-identical-at-any-Workers contract.
func TestScalePublicationDeterministic(t *testing.T) {
	const n, epochs = 100, 3
	stream := func(workers int) string {
		var b strings.Builder
		sched := emptySchedule(n)
		for v := 0; v < n; v += 8 {
			sched.Events = append(sched.Events, churn.Event{Time: 1 + float64(v)/float64(n), Node: v, On: false})
		}
		_, err := RunScale(ScaleConfig{
			N: n, K: 3, Seed: 23, MaxEpochs: epochs, Workers: workers,
			Sample: sampling.Spec{Strategy: sampling.Uniform, M: 20},
			Churn:  sched,
			OnPublish: func(pub Publication) {
				fmt.Fprintf(&b, "%d %d %v %v\n", pub.Epoch, pub.SubRound, pub.Full, pub.Changed)
				for _, u := range pub.Changed {
					fmt.Fprintf(&b, "  %d: %v %v\n", u, pub.Active[u], pub.Wiring[u])
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if stream(4) != stream(1) {
		t.Fatal("publication stream diverged between workers 1 and 4")
	}
}

// TestFullEnginePublications: the diff-based tracker in the full engine
// honours the same contract — including under delayed repair, where
// wiring rows keep departed targets and rows must count as changed when
// a target's membership flips.
func TestFullEnginePublications(t *testing.T) {
	const n, warm, meas = 40, 2, 3
	const total = warm + meas
	sched := emptySchedule(n)
	for _, v := range []int{4, 9, 14} {
		sched.Events = append(sched.Events, churn.Event{Time: 1.3, Node: v, On: false})
	}
	for _, v := range []int{4, 9} {
		sched.Events = append(sched.Events, churn.Event{Time: 3.4, Node: v, On: true})
	}
	rec := newPubRecorder(t)
	res, err := Run(Config{
		N: n, K: 3, Seed: 11,
		Policy:     core.BRPolicy{},
		WarmEpochs: warm, MeasureEpochs: meas,
		Churn:     sched,
		OnEpoch:   rec.onEpoch,
		OnPublish: rec.onPublish,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if rec.rounds != 16 {
		t.Fatalf("full engine rounds = %d, want min(16, N) = 16", rec.rounds)
	}
	rec.checkLog(total - 1)
	if rec.nonEmpty == 0 {
		t.Fatal("every full-engine delta was empty")
	}
}
