package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/sampling"
)

// pubRecorder is the test's model of a delta subscriber: it replays
// every Publication onto a shadow copy of the overlay and fails the
// test the moment a changed set misses a row — if applying exactly the
// Changed rows does not reproduce the engine's wiring and membership
// bit-for-bit, the delta stream is unusable for incremental
// publication. It also keeps an event log so the ordering contract
// (bootstrap Full strictly first, lexicographic (epoch, sub-round)
// order, EpochFinal on the bootstrap and on each epoch's last
// publication only) can be pinned.
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
		r.record("pub bootstrap", pub)
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
		if !slices.Equal(r.wiring[u], pub.Wiring[u]) {
			t.Fatalf("(%d,%d): wiring of %d changed outside the changed set: have %v want %v",
				pub.Epoch, pub.SubRound, u, r.wiring[u], pub.Wiring[u])
		}
	}
	r.record(fmt.Sprintf("pub %d %d", pub.Epoch, pub.SubRound), pub)
}

// record logs one publication, tagging the epoch-final ones.
func (r *pubRecorder) record(entry string, pub Publication) {
	if pub.EpochFinal() {
		entry += " final"
	}
	r.log = append(r.log, entry)
}

// checkLog pins the stream's shape for epochs 0..maxEpoch: the
// bootstrap first, then every epoch's sub-rounds 0..Rounds in order,
// with EpochFinal true on exactly the bootstrap and each epoch's drain
// publication (sub-round == Rounds) — what a per-epoch subscriber keeps.
func (r *pubRecorder) checkLog(maxEpoch int) {
	t := r.t
	t.Helper()
	want := []string{"pub bootstrap final"}
	for e := 0; e <= maxEpoch; e++ {
		for s := 0; s < r.rounds; s++ {
			want = append(want, fmt.Sprintf("pub %d %d", e, s))
		}
		want = append(want, fmt.Sprintf("pub %d %d final", e, r.rounds))
	}
	if got := strings.Join(r.log, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("publication stream diverged from the contract:\ngot:\n%s\nwant:\n%s",
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
