package sim

import (
	"fmt"
	"reflect"
	"testing"

	"egoist/internal/churn"
)

// TestTimelineUntil pins the churn cursor: events at equal times play
// together and in schedule order, an event that would not change its
// node's state is skipped without reaching apply, an event exactly at t
// waits for the next drain, and pending looks only below its horizon.
func TestTimelineUntil(t *testing.T) {
	active := []bool{true, true, false}
	tl := timeline{events: []churn.Event{
		{Time: 0.5, Node: 0, On: false},
		{Time: 0.5, Node: 1, On: true}, // already on: skipped
		{Time: 0.5, Node: 2, On: true},
		{Time: 1, Node: 0, On: true},
		{Time: 2, Node: 2, On: false},
	}}
	var played []churn.Event
	apply := func(ev churn.Event) error {
		active[ev.Node] = ev.On
		played = append(played, ev)
		return nil
	}
	for _, step := range []struct {
		t       float64
		played  []churn.Event
		pending float64 // pending(pending) must hold and pending(t) not; 0 skips the check
	}{
		{0.5, nil, 0.75},
		{0.75, []churn.Event{tl.events[0], tl.events[2]}, 1.5},
		{1, nil, 2},
		{2, []churn.Event{tl.events[3]}, 2.5},
		{3, []churn.Event{tl.events[4]}, 0},
	} {
		played = nil
		if err := tl.until(step.t, active, apply); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(played, step.played) {
			t.Fatalf("until(%v) played %v, want %v", step.t, played, step.played)
		}
		if step.pending > 0 && (!tl.pending(step.pending) || tl.pending(step.t)) {
			t.Fatalf("after until(%v): pending(%v) = %v, pending(%v) = %v", step.t,
				step.pending, tl.pending(step.pending), step.t, tl.pending(step.t))
		}
	}
	if tl.pending(100) {
		t.Fatal("pending after the last event")
	}
	if !reflect.DeepEqual(active, []bool{true, true, false}) {
		t.Fatalf("active = %v after the schedule", active)
	}
}

// TestStaggerOrder pins one epoch's sequence: a drain before each
// batch at epoch + b/B, the batch, its publication, then the drain
// before epoch + 1 and the epoch-final publication B.
func TestStaggerOrder(t *testing.T) {
	var got []string
	err := stagger(3, [][]int{{0, 2}, {1}}, func(t float64, sub int) error {
		got = append(got, fmt.Sprintf("drain %v/%d", t, sub))
		return nil
	}, func(sub int, batch []int) error {
		got = append(got, fmt.Sprintf("play %d %v", sub, batch))
		return nil
	}, func(sub int) {
		got = append(got, fmt.Sprintf("publish %d", sub))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"drain 3/0", "play 0 [0 2]", "publish 0",
		"drain 3.5/1", "play 1 [1]", "publish 1",
		"drain 4/2", "publish 2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stagger played\n%v\nwant\n%v", got, want)
	}
}
