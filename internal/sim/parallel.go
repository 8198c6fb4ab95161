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
// At the epoch boundary every node's best response is speculatively
// computed against the announced link-state snapshot, fanned out over a
// worker pool (Config.Workers); per-node best responses share no mutable
// state, so the phase parallelizes perfectly. Each worker keeps one
// shortest-path forest of the snapshot and obtains a node's residual
// matrix by cutting that node's out-links, repairing only the affected
// trees, and undoing exactly — the distances of a from-scratch all-pairs
// computation at a fraction of the work. Adoption then replays the
// stagger order sequentially. A node's speculative proposal is used only
// while the announced view is still exactly the snapshot — i.e. no earlier
// node re-wired, churned, or had its wiring repaired this epoch. The first
// such change marks the epoch dirty and every later node proposes again at
// its slot, against the live view (rewire).
//
// Because a clean slot sees inputs identical to the snapshot and policy
// randomness is a pure function of (seed, epoch, node), the speculative
// result equals what the sequential engine would compute at that slot:
// results are byte-identical for any worker count, including Workers: 1
// (which skips speculation entirely). Best-response dynamics converge, so
// in the common steady-state epoch no node re-wires and the whole epoch's
// solver work runs parallel; transient epochs degrade gracefully toward
// the sequential engine.

// view is the announced link-state a proposal is computed against.
type view struct {
	g      *graph.Digraph
	active []bool
	// forest, when non-nil, maintains all-pairs distances over g; a node's
	// residual matrix is then repaired out of it instead of recomputed.
	forest *graph.SPForest
}

// proposal is the outcome of one propose call: the proposed wiring and —
// for BR policies — the BR(ε) adoption-test values, both evaluated on the
// residual matrix the wiring was selected on.
type proposal struct {
	set    []int   // proposed wiring (nil: not computed, node was inactive)
	curVal float64 // objective of the node's current wiring on the view
	newVal float64 // objective of set on the view
}

// propose computes node i's proposal against v: the policy's selection
// and, for BR policies, the objective of cur and of the selection on the
// node's one residual matrix. It mutates nothing but sc and (transiently)
// v.forest, so distinct workers may run it concurrently.
func (st *state) propose(i, epoch int, v view, cur []int, sc *core.Scratch) (proposal, error) {
	kind := st.cfg.Metric.Kind()
	req := &core.Request{
		Self:    i,
		K:       st.cfg.K,
		Kind:    kind,
		Direct:  st.est[i],
		Graph:   v.g,
		Active:  v.active,
		Pref:    st.prefRow(i),
		Rng:     policyRNG(st.cfg.Seed, epoch, i),
		Scratch: sc,
	}
	_, isBR := st.cfg.Policy.(core.BRPolicy)
	if isBR && v.forest != nil {
		v.forest.RemoveOut(i)
		defer v.forest.RestoreOut()
		req.Resid = v.forest.Dist()
	} else if isBR {
		req.Resid = core.BuildResidScratch(v.g, i, kind, v.active, sc)
	}
	set, err := st.cfg.Policy.Select(req)
	if err != nil {
		return proposal{}, fmt.Errorf("sim: node %d: %w", i, err)
	}
	p := proposal{set: set}
	if isBR {
		inst := &core.Instance{
			Self: i, Kind: kind, Direct: st.est[i],
			Resid: req.Resid, Pref: req.Pref,
		}
		p.curVal = inst.EvalScratch(cur, sc)
		p.newVal = inst.EvalScratch(set, sc)
	}
	return p, nil
}

// decide applies the adoption rule to node i's proposal and, when it
// adopts, installs the wiring. join marks a fresh (re)join, which always
// adopts. counter, when non-nil, records established links.
func (st *state) decide(i int, p *proposal, join bool, counter func(links int)) {
	cur := st.wiring[i]
	adopt := join || len(cur) == 0
	if !adopt {
		// Drop dead neighbors from the current wiring before comparing.
		// (Links to dead nodes are not announced, so this does not dirty
		// the epoch for later nodes.)
		aliveCur := cur[:0:0]
		for _, v := range cur {
			if st.active[v] {
				aliveCur = append(aliveCur, v)
			}
		}
		if len(aliveCur) < len(cur) {
			st.wiring[i] = aliveCur
			adopt = true // lost links: must re-wire
		}
	}
	if !adopt {
		switch st.cfg.Policy.(type) {
		case core.BRPolicy:
			// BR(ε): adopt only a sufficient improvement, measured on the
			// node's own announced view.
			adopt = core.ShouldRewire(st.cfg.Metric.Kind(), p.curVal, p.newVal, st.cfg.Epsilon)
		case core.KClosest:
			adopt = true // tracks measurement changes every epoch
		default:
			// k-Random / k-Regular / full mesh: wiring is static absent
			// churn, per the paper's baseline.
			adopt = false
		}
	}
	if !adopt {
		return
	}
	added := measure.LinkDiff(st.wiring[i], p.set)
	if added > 0 && counter != nil {
		counter(added)
	}
	if added > 0 || len(p.set) != len(st.wiring[i]) {
		st.wiring[i] = p.set
		st.epochDirty = true
	}
}

// computeProposals runs the speculative best-response phase for one epoch
// and returns one proposal per node (set == nil for inactive nodes). With
// an effective worker count of 1 it returns nil: speculation would only
// duplicate the sequential work it is meant to hide. It also resets the
// epoch's dirty flag for the adoption phase.
func (st *state) computeProposals(epoch int) ([]proposal, error) {
	st.epochDirty = false
	workers := par.Workers(st.cfg.Workers)
	if workers <= 1 {
		return nil, nil
	}
	n := st.cfg.N
	snap := view{g: st.announcedGraph(), active: append([]bool(nil), st.active...)}
	jobs := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if snap.active[i] {
			jobs = append(jobs, i)
		}
	}
	if st.forests == nil {
		st.forests = make([]*graph.SPForest, workers)
		st.scratches = make([]*core.Scratch, workers)
		for w := range st.forests {
			st.forests[w] = graph.NewSPForest()
			st.scratches[w] = &core.Scratch{}
		}
	}
	// Only BR policies read a residual matrix; a worker builds its forest
	// of this epoch's snapshot when it takes its first job.
	_, isBR := st.cfg.Policy.(core.BRPolicy)
	built := make([]bool, workers)
	props := make([]proposal, n)
	err := par.DoErr(len(jobs), workers, func(worker, ji int) error {
		i := jobs[ji]
		v := snap
		if isBR {
			v.forest = st.forests[worker]
			if !built[worker] {
				v.forest.Reset(snap.g, st.cfg.Metric.Kind() == core.Bottleneck)
				built[worker] = true
			}
		}
		// st.wiring is not written during this phase, so the node's row is
		// read in place; curVal is only consulted on a clean slot, where
		// the row is still what it was here.
		var err error
		props[i], err = st.propose(i, epoch, v, st.wiring[i], st.scratches[worker])
		return err
	})
	if err != nil {
		return nil, err
	}
	return props, nil
}

// adopt decides node i's re-wiring at its stagger slot: while the epoch is
// clean the speculative proposal is authoritative; once it is dirty (or no
// proposals were computed) the node proposes again against the live view.
func (st *state) adopt(i, epoch int, prop *proposal, counter func(links int)) error {
	if prop == nil || prop.set == nil || st.epochDirty {
		return st.rewire(i, epoch, false, counter)
	}
	st.decide(i, prop, false, counter)
	return nil
}

// policyRNG derives the deterministic per-(epoch,node) policy randomness.
// Seeding per node rather than sharing one stream is what makes stochastic
// policies (k-Random) independent of both the worker count and the order in
// which the pool happens to schedule nodes.
func policyRNG(seed int64, epoch, node int) *rand.Rand {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x = splitmix64(x + uint64(int64(epoch))*0xbf58476d1ce4e5b9)
	x = splitmix64(x + uint64(int64(node))*0x94d049bb133111eb)
	return rand.New(rand.NewSource(int64(x)))
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
