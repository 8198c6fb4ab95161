package sim

import "egoist/internal/churn"

// timeline is the churn-schedule cursor both engines play: membership
// events land between re-wirings, at their scheduled times (Sects.
// 3.1–3.3). A nil schedule has no events.
type timeline struct {
	events []churn.Event
	at     int // the next event not yet played
}

// until plays every event before t in schedule order, handing apply
// those that change a node's state (ev.On != active[ev.Node]) and
// skipping the rest. apply must update active.
func (tl *timeline) until(t float64, active []bool, apply func(ev churn.Event) error) error {
	for tl.pending(t) {
		ev := tl.events[tl.at]
		tl.at++
		if ev.On == active[ev.Node] {
			continue
		}
		if err := apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// pending reports whether an event before t is left to play.
func (tl *timeline) pending(t float64) bool {
	return tl.at < len(tl.events) && tl.events[tl.at].Time < t
}

// stagger plays one epoch of B = len(batches) batches: before batch b
// it drains the events before epoch + b/B, then plays the batch and
// publishes sub-round b; after the last batch it drains the events
// before epoch + 1 and publishes sub-round B.
func stagger(epoch int, batches [][]int, drain func(t float64, sub int) error, play func(sub int, batch []int) error, publish func(sub int)) error {
	B := len(batches)
	for b, batch := range batches {
		if err := drain(float64(epoch)+float64(b)/float64(B), b); err != nil {
			return err
		}
		if err := play(b, batch); err != nil {
			return err
		}
		publish(b)
	}
	if err := drain(float64(epoch+1), B); err != nil {
		return err
	}
	publish(B)
	return nil
}
