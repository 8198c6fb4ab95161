package sim

import "sort"

// Publication is one data-plane publication unit — the only way the
// engine tells a subscriber its wiring changed (ScaleConfig.OnPublish):
// the overlay state right after one stagger sub-round folded, plus the
// exact set of rows that changed since the previous publication — what
// an incremental publisher (plane.Snapshot.Patch) needs to derive the
// next snapshot without a full recompile. A subscriber that wants one
// full compile per epoch instead filters the stream on EpochFinal.
type Publication struct {
	// Epoch is the epoch in progress; -1 is the bootstrap publication.
	Epoch int
	// SubRound is the stagger sub-round just folded (0..Rounds-1),
	// Rounds for the epoch-final churn drain, -1 for the bootstrap.
	SubRound int
	// Rounds is the run's sub-round count per epoch.
	Rounds int
	// Full marks the bootstrap publication: Changed is nil and the
	// subscriber must compile from scratch. Every later publication is
	// a delta on top of the previous one.
	Full bool
	// Changed lists, ascending and without duplicates, every node whose
	// wiring row or membership changed since the previous publication:
	// adopted re-wirings, joiners, leavers, and the in-neighbors a
	// leave orphaned. It may be empty (an idle sub-round still
	// publishes, so subscribers can pace on sub-round boundaries). The
	// slice is engine scratch, valid only for the duration of the call.
	Changed []int
	// Wiring and Active are the engine's own live arrays, borrowed
	// read-only for the duration of the call: a subscriber compiles or
	// patches its immutable view (a plane.Snapshot) before returning and
	// retains no reference.
	Wiring [][]int
	Active []bool
}

// EpochFinal reports whether the publication carries an epoch-final
// state: the bootstrap (the state before epoch 0) or an epoch's last
// publication, after its final churn drain. A run delivers exactly one
// per epoch plus the bootstrap, in order.
func (p Publication) EpochFinal() bool { return p.Full || p.SubRound == p.Rounds }

// markChanged records node i into the pending publication's changed
// set. No-op when no OnPublish subscriber is attached (pubMark nil), so
// the hook costs nothing on runs that do not use it.
func (e *scaleEngine) markChanged(i int) {
	if e.pubMark == nil || e.pubMark[i] {
		return
	}
	e.pubMark[i] = true
	e.pubChanged = append(e.pubChanged, i)
}

// publish fires OnPublish with the accumulated changed set and resets
// it. Runs in the engine's serial section; the sort keeps the set
// deterministic regardless of the mark order within the sub-round.
func (e *scaleEngine) publish(epoch, sub, rounds int) {
	if e.c.OnPublish == nil {
		return
	}
	sort.Ints(e.pubChanged)
	e.c.OnPublish(Publication{
		Epoch: epoch, SubRound: sub, Rounds: rounds,
		Changed: e.pubChanged, Wiring: e.wiring, Active: e.active,
	})
	for _, i := range e.pubChanged {
		e.pubMark[i] = false
	}
	e.pubChanged = e.pubChanged[:0]
}
