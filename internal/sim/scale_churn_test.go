package sim

import (
	"bytes"
	"reflect"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/sampling"
)

// emptySchedule is an all-on schedule with no events: it routes the run
// through the dynamic-membership machinery (alive-masked sampling,
// reverse index) without ever changing membership, which is how the
// rescue test obtains a byte-identical prefix for its churned twin.
func emptySchedule(n int) *churn.Schedule {
	s := &churn.Schedule{N: n, InitialOn: make([]bool, n)}
	for i := range s.InitialOn {
		s.InitialOn[i] = true
	}
	return s
}

// waveSchedule turns the given nodes off (or on) at time t.
func waveSchedule(n int, t float64, nodes []int, on bool) *churn.Schedule {
	s := emptySchedule(n)
	if on {
		for _, v := range nodes {
			s.InitialOn[v] = false
		}
	}
	for _, v := range nodes {
		s.Events = append(s.Events, churn.Event{Time: t, Node: v, On: on})
	}
	return s
}

// TestScaleChurnDeterministicAcrossWorkers is the dynamic-membership
// determinism contract: a run with joins, leaves and a demand flip must
// be byte-identical at any worker count.
func TestScaleChurnDeterministicAcrossWorkers(t *testing.T) {
	const n = 120
	sched := emptySchedule(n)
	for v := 0; v < n; v += 9 { // leaves spread across epochs 1..2
		sched.Events = append(sched.Events, churn.Event{Time: 1 + float64(v)/float64(n), Node: v, On: false})
	}
	for v := 3; v < n; v += 11 { // rejoining and fresh joins in epoch 3
		sched.Events = append(sched.Events, churn.Event{Time: 3 + float64(v)/float64(n), Node: v, On: true})
	}
	hotA := func(i, j int) float64 { return 1 + float64((i+j)%5) }
	hotB := func(i, j int) float64 { return 1 + float64((i+2*j)%7) }
	base := ScaleConfig{
		N: n, K: 3, Seed: 17, MaxEpochs: 6,
		Sample: sampling.Spec{Strategy: sampling.Demand, M: 25},
		Churn:  sched,
		DemandAt: func(epoch int) func(i, j int) float64 {
			if epoch >= 4 {
				return hotB
			}
			return hotA
		},
	}
	cfgA := base
	cfgA.Workers = 1
	cfgB := base
	cfgB.Workers = 8
	// The second twin also re-derives every member proposer's directory
	// row with a seeded Dijkstra (and fails the run on a bit difference):
	// joins, leaves and rebuilds must all leave the directory graph in
	// step with the wiring. The probe must not show in the result.
	cfgB.probe = rowsProbe()
	a, err := RunScale(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
		t.Fatal("Workers 1 vs 8 diverged under churn")
	}
	if a.Leaves == 0 || a.Joins == 0 {
		t.Fatalf("schedule did not exercise both event kinds: joins=%d leaves=%d", a.Joins, a.Leaves)
	}
}

// TestCheckDirectoryCatchesUnstagedChange: with the directory seeded
// once and never rebuilt from the wiring, a wiring change that skips
// stage leaves the two apart for good; checkRows' directory check is
// what must see it, and a stage/commit of the change must clear it.
func TestCheckDirectoryCatchesUnstagedChange(t *testing.T) {
	c, err := (&ScaleConfig{
		N: 12, K: 2, Seed: 1,
		Sample: sampling.Spec{Strategy: sampling.Uniform, M: 4},
		probe:  rowsProbe(),
	}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	wiring := make([][]int, c.N)
	for u := range wiring {
		wiring[u] = []int{(u + 1) % c.N, (u + 2) % c.N}
	}
	active := make([]bool, c.N)
	for u := range active {
		active[u] = true
	}
	eng := &scaleEngine{c: &c, wiring: wiring, active: active, pool: newScalePool(&c, wiring, 1)}
	if err := eng.checkDirectory("seed", 0); err != nil {
		t.Fatal(err)
	}
	eng.wiring[3] = []int{5, 7}
	if err := eng.checkDirectory("unstaged edit", 0); err == nil {
		t.Fatal("the directory check missed a wiring change that was never staged")
	}
	eng.pool.stage(3, eng.wiring[3])
	eng.pool.commit()
	if err := eng.checkDirectory("staged edit", 0); err != nil {
		t.Fatal(err)
	}
}

// TestScaleChurnIncrementalDirectory pins the directory-maintenance
// invariant: membership events mid-epoch repair the facility directory
// incrementally — a full DynamicRows rebuild happens exactly once per
// epoch, never per event.
func TestScaleChurnIncrementalDirectory(t *testing.T) {
	const n = 150
	sched := emptySchedule(n)
	// A mid-epoch leave wave plus scattered joins/leaves across epochs.
	for v := 0; v < 20; v++ {
		sched.Events = append(sched.Events, churn.Event{Time: 2.5, Node: v * 3, On: false})
	}
	for v := 0; v < 10; v++ {
		sched.Events = append(sched.Events, churn.Event{Time: 3.5, Node: v * 3, On: true})
	}
	probe := &scaleProbe{}
	res, err := RunScale(ScaleConfig{
		N: n, K: 3, Seed: 23, MaxEpochs: 6, Workers: 2,
		Sample: sampling.Spec{Strategy: sampling.Uniform, M: 30},
		Churn:  sched,
		probe:  probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nor does a rebuild recompute what the events left exact: past the
	// first, it builds rows for new members at most (a mid-epoch joiner
	// is new to the membership record but already holds its row).
	for e := 1; e < len(probe.rebuilds); e++ {
		if rb, isNew := probe.rebuilds[e], newMembers(probe.rebuilds[e-1].ids, probe.rebuilds[e].ids); rb.rows > isNew {
			t.Errorf("epoch %d rebuild built %d rows for %d new members of %d", e, rb.rows, isNew, len(rb.ids))
		}
	}
	if res.Leaves != 20 || res.Joins != 10 {
		t.Fatalf("events applied: joins=%d leaves=%d, want 10/20", res.Joins, res.Leaves)
	}
	if res.DirectoryResets != res.Epochs {
		t.Fatalf("directory fully rebuilt %d times over %d epochs: membership events must repair incrementally",
			res.DirectoryResets, res.Epochs)
	}
	if res.DirectoryApplies == 0 {
		t.Fatal("no incremental directory repairs recorded")
	}
}

// TestScaleRescueWithinOneEpoch is the rescue-path property: a node
// whose last neighbor departs must re-wire within one epoch. The
// churned run shares a byte-identical prefix with an event-free twin
// (both run the dynamic path), so the victim's wiring at the event
// epoch is known exactly and the kill provably orphans it.
func TestScaleRescueWithinOneEpoch(t *testing.T) {
	const n, k, batches, preEpochs = 150, 3, 16, 3
	for _, seed := range []int64{1, 2, 3} {
		base := ScaleConfig{
			N: n, K: k, Seed: seed, Workers: 2,
			Sample:         sampling.Spec{Strategy: sampling.Uniform, M: 30},
			StaggerBatches: batches,
			ConvergedFrac:  -1, // never stop early: the prefix must span all epochs
		}
		pre := base
		pre.MaxEpochs = preEpochs
		pre.Churn = emptySchedule(n)
		preRes, err := RunScale(pre)
		if err != nil {
			t.Fatal(err)
		}
		// The victim acts in sub-round x mod batches = 5, safely after
		// the kill lands (before sub-round 1), so its whole wiring is
		// provably orphaned when its slot comes — within the same epoch.
		const x = 5
		victims := append([]int(nil), preRes.Wiring[x]...)
		if len(victims) == 0 {
			t.Fatalf("seed %d: victim has no wiring to kill", seed)
		}
		run := base
		run.MaxEpochs = preEpochs + 1
		run.Churn = waveSchedule(n, preEpochs, victims, false)
		run.probe = rowsProbe() // the orphans' rows, re-derived
		res, err := RunScale(run)
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaves != len(victims) {
			t.Fatalf("seed %d: %d leaves applied, want %d (prefix diverged?)", seed, res.Leaves, len(victims))
		}
		dead := map[int]bool{}
		for _, v := range victims {
			dead[v] = true
		}
		w := res.Wiring[x]
		if len(w) == 0 {
			t.Fatalf("seed %d: orphaned node %d did not re-wire within the event epoch", seed, x)
		}
		for _, v := range w {
			if dead[v] {
				t.Fatalf("seed %d: node %d still wired to departed node %d", seed, x, v)
			}
		}
		// Global invariant: every alive node ends wired, to alive
		// targets only.
		for i, wi := range res.Wiring {
			if dead[i] {
				if wi != nil {
					t.Fatalf("seed %d: departed node %d kept wiring %v", seed, i, wi)
				}
				continue
			}
			if len(wi) == 0 {
				t.Fatalf("seed %d: alive node %d ended unwired", seed, i)
			}
			for _, v := range wi {
				if dead[v] {
					t.Fatalf("seed %d: node %d wired to departed node %d", seed, i, v)
				}
			}
		}
	}
}

// TestScaleLeaveWaveRecovery is the small-scale version of the headline
// acceptance run: after a 5% leave wave the mean estimated cost must
// return to within 5% of its pre-event value within 3 epochs.
func TestScaleLeaveWaveRecovery(t *testing.T) {
	const n, k = 400, 4
	const waveEpoch = 4
	var victims []int
	for v := 0; v < n && len(victims) < n/20; v += 20 {
		victims = append(victims, v)
	}
	res, err := RunScale(ScaleConfig{
		N: n, K: k, Seed: 2008, Workers: 2, MaxEpochs: waveEpoch + 4,
		Sample:        sampling.Spec{Strategy: sampling.Demand, M: 60},
		Churn:         waveSchedule(n, waveEpoch+0.3, victims, false),
		ConvergedFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < waveEpoch+4 {
		t.Fatalf("run stopped after %d epochs", res.Epochs)
	}
	pre := res.PerEpoch[waveEpoch-1].MeanEstCost
	recovered := -1
	for d := 1; waveEpoch+d < res.Epochs; d++ {
		if res.PerEpoch[waveEpoch+d].MeanEstCost <= pre*1.05 {
			recovered = d
			break
		}
	}
	if recovered < 0 || recovered > 3 {
		costs := make([]float64, res.Epochs)
		for e, ep := range res.PerEpoch {
			costs[e] = ep.MeanEstCost
		}
		t.Fatalf("no recovery within 3 epochs of the wave (pre=%.1f, costs=%v)", pre, costs)
	}
}

// TestScaleJoinWave checks a flash-crowd join wave integrates: joiners
// end up wired to alive targets and the overlay keeps converging.
func TestScaleJoinWave(t *testing.T) {
	const n = 200
	var joiners []int
	for v := 0; v < n; v += 4 { // 25% of the roster joins at epoch 3
		joiners = append(joiners, v)
	}
	res, err := RunScale(ScaleConfig{
		N: n, K: 3, Seed: 5, Workers: 2, MaxEpochs: 8,
		Sample: sampling.Spec{Strategy: sampling.Uniform, M: 30},
		Churn:  waveSchedule(n, 3.1, joiners, true),
		// Most joiners act later in the epoch they joined in, reading the
		// row their join gave them: re-derive it.
		probe: rowsProbe(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins != len(joiners) {
		t.Fatalf("joins applied = %d, want %d", res.Joins, len(joiners))
	}
	for _, v := range joiners {
		if len(res.Wiring[v]) == 0 {
			t.Fatalf("joiner %d ended unwired", v)
		}
	}
	last := res.PerEpoch[res.Epochs-1]
	if last.Alive != n {
		t.Fatalf("alive at end = %d, want %d", last.Alive, n)
	}
}

// TestScaleChurnJoinAfterLeaveSameWindow: the alive roster a joiner
// bootstraps over is only refreshed once a whole churn drain is done,
// so a node that left earlier in the same drain is still on it. Here
// two thirds of that roster leave and five nodes join, all between the
// same two sub-rounds: a bootstrap that trusted the roster would wire
// the joiners to departed nodes (and the next proposal of such a joiner
// indexed a facility row that does not exist). The probe checks after
// every drain that no link points at a departed node.
func TestScaleChurnJoinAfterLeaveSameWindow(t *testing.T) {
	const n, k, on = 60, 3, 45
	sched := emptySchedule(n)
	for v := on; v < n; v++ {
		sched.InitialOn[v] = false
	}
	for v := 0; v < 30; v++ {
		sched.Events = append(sched.Events, churn.Event{Time: 1.26, Node: v, On: false})
	}
	for v := on; v < on+5; v++ {
		sched.Events = append(sched.Events, churn.Event{Time: 1.27, Node: v, On: true})
	}
	res, err := RunScale(ScaleConfig{
		N: n, K: k, Seed: 41, Workers: 2, MaxEpochs: 4, StaggerBatches: 4,
		Sample:        sampling.Spec{Strategy: sampling.Uniform, M: 20},
		ConvergedFrac: -1,
		Churn:         sched,
		probe:         rowsProbe(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaves != 30 || res.Joins != 5 {
		t.Fatalf("applied %d leaves and %d joins, want 30 and 5", res.Leaves, res.Joins)
	}
	for v := on; v < on+5; v++ {
		if len(res.Wiring[v]) != k {
			t.Fatalf("joiner %d ended with wiring %v, want %d links", v, res.Wiring[v], k)
		}
	}
	for u, w := range res.Wiring {
		for _, v := range w {
			if v < 30 || v >= on+5 {
				t.Fatalf("node %d ended wired to %d, which is not a member", u, v)
			}
		}
	}
}

// TestScaleDrainedBand drains one whole contiguous id band — nodes
// [0, 40) of 160 all leave within a third of an epoch, the shape of a
// regional outage — then rejoins ten nodes into it, and requires the
// same bytes at workers 1 and 3. The parallel twin re-derives every
// member proposer's directory row along the way.
func TestScaleDrainedBand(t *testing.T) {
	mk := func(workers int) ScaleConfig {
		const n = 160
		sched := emptySchedule(n)
		for v := 0; v < 40; v++ {
			sched.Events = append(sched.Events, churn.Event{Time: 1 + float64(v)/128, Node: v, On: false})
		}
		for v := 0; v < 40; v += 4 { // rejoins into the drained band
			sched.Events = append(sched.Events, churn.Event{Time: 2.5 + float64(v)/256, Node: v, On: true})
		}
		return ScaleConfig{
			N: n, K: 3, Seed: 83, MaxEpochs: 4, Workers: workers,
			Sample:         sampling.Spec{Strategy: sampling.Uniform, M: 24},
			StaggerBatches: 16,
			ConvergedFrac:  -1,
			Churn:          sched,
		}
	}
	ref, err := RunScale(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Leaves != 40 || ref.Joins != 10 {
		t.Fatalf("drain schedule did not play out: joins=%d leaves=%d", ref.Joins, ref.Leaves)
	}
	cfg := mk(3)
	cfg.probe = rowsProbe()
	got, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, ref), resultJSON(t, got)) {
		t.Fatal("drained-band run diverged between workers 1 and 3")
	}
}

// TestScaleChurnRejectsBadConfig covers the churn validation paths.
func TestScaleChurnRejectsBadConfig(t *testing.T) {
	spec := sampling.Spec{Strategy: sampling.Uniform, M: 10}
	wrongN := emptySchedule(30)
	if _, err := RunScale(ScaleConfig{N: 50, K: 3, Sample: spec, Churn: wrongN}); err == nil {
		t.Error("churn schedule with wrong N accepted")
	}
	drained := emptySchedule(50)
	for v := 3; v < 50; v++ {
		drained.InitialOn[v] = false // only 3 alive < K+2
	}
	if _, err := RunScale(ScaleConfig{N: 50, K: 3, Sample: spec, Churn: drained}); err == nil {
		t.Error("near-empty initial roster accepted")
	}
	unordered := emptySchedule(20)
	unordered.Events = []churn.Event{{Time: 2, Node: 1, On: false}, {Time: 1, Node: 2, On: false}}
	if _, err := RunScale(ScaleConfig{N: 20, K: 3, Sample: spec, Churn: unordered}); err == nil {
		t.Error("out-of-order schedule accepted")
	}
}

// churnScript decodes a fuzz input into a churn schedule over lo to
// lo+span-1 nodes. Byte 0 sizes the overlay in that range, byte 1 sets
// how many of its top ids start off (fresh joiners), and each later byte
// pair is one step: the first byte's low two bits pick a leave, a join,
// or a leave then join of the same node at the same instant, its next
// two bits advance the clock — which starts mid-epoch 0, where events
// repair the live directory — by 0..3 sixteenths of an epoch (0 lands in
// the previous event's sub-round window, the same-window leave→join
// shape), and the second byte names the node. Naming a departed node in
// a join is a rejoin.
func churnScript(data []byte, lo, span int) *churn.Schedule {
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	n := lo + int(data[0])%span
	s := emptySchedule(n)
	for v := n - int(data[1])%(n/3); v < n; v++ {
		s.InitialOn[v] = false
	}
	t := 0.5
	for x := 2; x+1 < len(data) && x < 2+2*48; x += 2 {
		op, node := data[x], int(data[x+1])%n
		t += float64(op>>2&3) / 16
		switch op & 3 {
		case 0:
			s.Events = append(s.Events, churn.Event{Time: t, Node: node, On: false})
		case 1:
			s.Events = append(s.Events, churn.Event{Time: t, Node: node, On: true})
		default:
			s.Events = append(s.Events, churn.Event{Time: t, Node: node, On: false}, churn.Event{Time: t, Node: node, On: true})
		}
	}
	return s
}

// FuzzScaleChurnSchedule plays byte-scripted churn schedules through the
// scale engine with checkRows on — every member proposer's directory row
// re-derived, the directory graph checked against the wiring after every
// adopt batch and live churn drain — and requires no error, no final
// wiring row of or to a departed node, and the same ScaleResult JSON at
// workers 1 and 3.
func FuzzScaleChurnSchedule(f *testing.F) {
	f.Add([]byte{72, 10, 0, 3, 4, 9, 1, 3, 5, 11, 8, 40})
	// Leaves, then joins of fresh ids, all in one window.
	f.Add([]byte{12, 30, 0, 0, 0, 1, 0, 2, 0, 3, 1, 58, 1, 59, 1, 3})
	// Same-node leave→join, then a rejoin after the clock moved on.
	f.Add([]byte{0, 0, 2, 5, 12, 6, 0, 7, 13, 7, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := churnScript(data, 48, 73)
		run := func(workers int) *ScaleResult {
			res, err := RunScale(ScaleConfig{
				N: sched.N, K: 3, Seed: 7, Workers: workers, MaxEpochs: 3,
				Sample:         sampling.Spec{Strategy: sampling.Uniform, M: 12},
				StaggerBatches: 8,
				ConvergedFrac:  -1,
				Churn:          sched,
				probe:          rowsProbe(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1)
		// Every event before the horizon was drained by the final epoch.
		alive := append([]bool(nil), sched.InitialOn...)
		for _, ev := range sched.Events {
			if ev.Time < 3 {
				alive[ev.Node] = ev.On
			}
		}
		for u, w := range ref.Wiring {
			if !alive[u] && len(w) > 0 {
				t.Fatalf("departed node %d ended wired to %v", u, w)
			}
			for _, v := range w {
				if !alive[v] {
					t.Fatalf("node %d ended wired to departed node %d", u, v)
				}
			}
		}
		if !bytes.Equal(resultJSON(t, ref), resultJSON(t, run(3))) {
			t.Fatal("workers 1 and 3 diverged")
		}
	})
}
