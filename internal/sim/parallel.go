package sim

import (
	"fmt"
	"math/rand"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/measure"
	"egoist/internal/par"
)

// This file holds the full engine's one re-wiring slot — propose, then
// decide — and the parallel best-response phase that runs propose ahead of
// time, as optimistic concurrency over the paper's staggered (one node
// after another) re-wiring semantics.
//
// Every residual matrix G−i comes out of a shortest-path forest of the
// announced link-state: cutting i's out-links repairs only the trees that
// routed through them, the distances of a from-scratch all-pairs
// computation at a fraction of the work. The sequential slots share one
// live forest (state.live) that follows the announced view: a slot cuts
// its node, prices the proposal, and then restores the links or, when
// the node re-wires, commits its new ones into the forest. Changes made
// outside a slot (fresh estimates at the epoch boundary, membership
// events, backbone and cycle repairs) mark the forest stale, and the next
// slot that needs it rebuilds it once.
//
// At the epoch boundary every node's best response is speculatively
// computed against the announced link-state snapshot, fanned out over a
// worker pool (Config.Workers); per-node best responses share no mutable
// state, so the phase parallelizes perfectly. Each worker keeps its own
// forest of the snapshot and undoes every cut exactly; one of them becomes
// the epoch's live forest afterwards. Adoption then replays the stagger
// order sequentially. A node's speculative proposal is used only while the
// announced view is still exactly the snapshot — i.e. no earlier node
// re-wired, churned, or had its wiring repaired this epoch. The first such
// change marks the epoch dirty and every later node proposes again at its
// slot, against the live forest (rewire).
//
// Because a clean slot sees inputs identical to the snapshot and policy
// randomness is a pure function of (seed, epoch, node), the speculative
// result equals what the sequential engine would compute at that slot:
// results are byte-identical for any worker count, including Workers: 1
// (which skips speculation entirely). Best-response dynamics converge, so
// in the common steady-state epoch no node re-wires and the whole epoch's
// solver work runs parallel; an epoch after a transient one, whose early
// slots re-wired, skips the phase and runs as the sequential engine (see
// computeProposals).

// proposal is the outcome of one propose call: the proposed wiring and —
// for BR policies — the BR(ε) adoption-test values, both evaluated on the
// residual matrix the wiring was selected on.
type proposal struct {
	set    []int   // proposed wiring (nil: not computed, node was inactive)
	curVal float64 // objective of the node's current wiring on the view
	newVal float64 // objective of set on the view
}

// propose computes node i's proposal over the announced view whose
// residual matrix G−i is resid (supplied exactly for BR policies, nil for
// the policies that read none): the policy's selection and, for BR, the
// objective of cur and of the selection on that matrix. It mutates
// nothing but w, so distinct workers may run it concurrently.
func (st *state) propose(i, epoch int, active []bool, resid [][]float64, cur []int, w *proposer) (proposal, error) {
	kind := st.cfg.Metric.Kind()
	req := &core.Request{
		Self:    i,
		K:       st.cfg.K,
		Kind:    kind,
		Direct:  st.est[i],
		Active:  active,
		Pref:    st.prefRow(i),
		Rng:     w.rng.at(st.cfg.Seed, epoch, i),
		Scratch: &w.sc,
		Resid:   resid,
	}
	set, err := st.cfg.Policy.Select(req)
	if err != nil {
		return proposal{}, fmt.Errorf("sim: node %d: %w", i, err)
	}
	p := proposal{set: set}
	if resid != nil {
		inst := &core.Instance{
			Self: i, Kind: kind, Direct: st.est[i],
			Resid: resid, Pref: req.Pref,
		}
		p.curVal = inst.EvalScratch(cur, &w.sc)
		p.newVal = inst.EvalScratch(set, &w.sc)
	}
	return p, nil
}

// decide applies core.Adopt to node i's proposal and, when it adopts,
// installs the wiring. counter, when non-nil, records established links.
// It reports whether i's announced links changed.
func (st *state) decide(i int, p *proposal, counter func(links int)) bool {
	// Drop dead neighbors from the current wiring before deciding. (Links
	// to dead nodes are not announced, so this does not dirty the epoch
	// for later nodes.)
	cur := st.wiring[i]
	alive := cur[:0:0]
	for _, v := range cur {
		if st.active[v] {
			alive = append(alive, v)
		}
	}
	if len(alive) < len(cur) {
		st.wiring[i] = alive
	}
	others := 0
	for j, on := range st.active {
		if on && j != i {
			others++
		}
	}
	if !core.Adopt(st.cfg.Policy, st.cfg.Metric.Kind(), st.cfg.Epsilon, st.cfg.K, others, len(cur), len(alive), p.curVal, p.newVal) {
		return false
	}
	added := measure.LinkDiff(st.wiring[i], p.set)
	if added > 0 && counter != nil {
		counter(added)
	}
	if added == 0 && len(p.set) == len(st.wiring[i]) {
		return false
	}
	st.wiring[i] = p.set
	st.epochDirty = true
	return true
}

// computeProposals runs the speculative best-response phase for one epoch
// and returns one proposal per node (set == nil for inactive nodes). It
// returns nil — every slot then proposes at its turn — with an effective
// worker count of 1, where speculation would only duplicate the
// sequential work it is meant to hide, and when fewer than n/workers
// slots of the previous epoch (none before the first) began clean: the
// phase costs about n/workers slots of wall time and saves only the
// clean ones, so a short clean prefix predicts a loss. Under BR at ε = 0
// with probe noise some node re-wires within the first few slots of
// nearly every epoch. It also resets the epoch's dirty flag and clean
// count for the adoption phase.
func (st *state) computeProposals(epoch int) ([]proposal, error) {
	st.epochDirty = false
	n := st.cfg.N
	workers := par.Workers(st.cfg.Workers)
	clean := st.cleanSlots
	st.cleanSlots = 0
	if workers <= 1 || clean*workers < n {
		return nil, nil
	}
	snap := st.announcedGraph()
	active := append([]bool(nil), st.active...)
	jobs := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if active[i] {
			jobs = append(jobs, i)
		}
	}
	if st.forests == nil {
		st.forests = make([]*graph.SPForest, workers)
		st.proposers = make([]*proposer, workers)
		for w := range st.forests {
			st.forests[w] = graph.NewSPForest()
			st.proposers[w] = &proposer{}
		}
	}
	// Only BR policies read a residual matrix; a worker builds its forest
	// of this epoch's snapshot when it takes its first job.
	isBR := st.isBR()
	built := make([]bool, workers)
	props := make([]proposal, n)
	err := par.DoErr(len(jobs), workers, func(worker, ji int) error {
		i := jobs[ji]
		var resid [][]float64
		f := st.forests[worker]
		if isBR {
			if !built[worker] {
				f.Reset(snap, st.bottleneck())
				built[worker] = true
			}
			f.RemoveOut(i)
			defer f.RestoreOut()
			resid = f.Dist()
		}
		// st.wiring is not written during this phase, so the node's row is
		// read in place; curVal is only consulted on a clean slot, where
		// the row is still what it was here.
		var err error
		props[i], err = st.propose(i, epoch, active, resid, st.wiring[i], st.proposers[worker])
		return err
	})
	if err != nil {
		return nil, err
	}
	// Every cut was undone, so a built forest is the snapshot: it becomes
	// the live forest the adoption phase edits, and the old live forest
	// takes its place in the pool.
	for w, ok := range built {
		if ok {
			st.live, st.forests[w] = st.forests[w], st.live
			if st.forests[w] == nil {
				st.forests[w] = graph.NewSPForest()
			}
			st.liveOK = true
			break
		}
	}
	return props, nil
}

// adopt decides node i's re-wiring at its stagger slot: while the epoch is
// clean the speculative proposal is authoritative, and an adoption is
// committed into the live forest; once it is dirty (or no proposals were
// computed) the node proposes again against the live forest.
func (st *state) adopt(i, epoch int, prop *proposal, counter func(links int)) error {
	if prop == nil || prop.set == nil || st.epochDirty {
		return st.rewire(i, epoch, counter)
	}
	if st.decide(i, prop, counter) && st.liveOK {
		st.live.RemoveOut(i)
		st.live.CommitOut(st.announcedOut(i))
		return st.checkLive(i)
	}
	return nil
}

// policyRNG derives the deterministic per-(epoch,node) policy randomness.
// Seeding per node rather than sharing one stream is what makes stochastic
// policies (k-Random) independent of both the worker count and the order in
// which the pool happens to schedule nodes.
func policyRNG(seed int64, epoch, node int) *rand.Rand {
	return rand.New(rand.NewSource(policySeed(seed, epoch, node)))
}

// policySeed is the source seed of policyRNG's (seed, epoch, node) stream.
func policySeed(seed int64, epoch, node int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x = splitmix64(x + uint64(int64(epoch))*0xbf58476d1ce4e5b9)
	x = splitmix64(x + uint64(int64(node))*0x94d049bb133111eb)
	return int64(x)
}

// policyStream is a worker's reusable policyRNG: at re-seeds one generator
// to the (seed, epoch, node) stream instead of allocating one per
// proposal. Seed re-initialises the source exactly as NewSource does, so
// the draws are policyRNG's.
type policyStream struct{ r *rand.Rand }

func (p *policyStream) at(seed int64, epoch, node int) *rand.Rand {
	if p.r == nil {
		p.r = policyRNG(seed, epoch, node)
	} else {
		p.r.Seed(policySeed(seed, epoch, node))
	}
	return p.r
}

// proposer is one worker's reusable proposal state in the full engine:
// its solver scratch and its policy generator.
type proposer struct {
	sc  core.Scratch
	rng policyStream
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
