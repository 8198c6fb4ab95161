package core

import "egoist/internal/sampling"

// This file is the sampled best-response solver of the large-scale
// simulation mode: the node solves the SNS game against a weighted
// destination sample instead of the full roster (the scaled-input
// formulation of Sect. 5, generalized from the newcomer experiments to
// every node's periodic re-wiring). The sample's inverse-probability
// weights are folded into the objective's weights, so the solver's
// objective is by construction the Horvitz–Thompson estimate of the
// full-roster cost — unbiased for any fixed wiring — and the companion
// estimator reports the 95% confidence band the adoption tests and the
// accuracy property tests consume.

// BestResponseSampled solves the best-response problem against the
// destination sample ds: the solver sees only the sampled destinations,
// weighted so its objective estimates the full-roster cost without bias.
// It returns the chosen wiring and the estimate of the chosen wiring's
// full-roster objective, with its 95% confidence band.
//
// The returned estimate is computed on the optimization sample, so it is
// optimistically biased for the chosen wiring (the wiring was picked to
// minimize exactly this estimate). Paired comparisons on the same sample
// — the BR(ε) adoption test — are unaffected, but an honest standalone
// cost estimate needs a fresh draw: re-evaluate with EvalSampled on an
// independent sample, as the accuracy property tests do.
//
// The instance's Candidates field governs which facilities may be wired;
// pass ds.Dests (or a superset including the current wiring) for the
// fully sampled game.
func BestResponseSampled(in *Instance, k int, ds *sampling.DestSample, opts BROptions, s *Scratch) ([]int, sampling.Estimate, error) {
	if s == nil {
		s = &Scratch{}
	}
	if err := s.fillSampled(in, ds); err != nil {
		return nil, sampling.Estimate{}, err
	}
	chosen, est, _, err := s.BestResponseBlock(k, nil, opts, nil)
	return chosen, est, err
}

// fillSampled fills the scratch's block from in over the destination
// sample ds.
func (s *Scratch) fillSampled(in *Instance, ds *sampling.DestSample) error {
	if ds == nil || len(ds.Dests) == 0 {
		return errEmptySample
	}
	if err := in.Validate(); err != nil {
		return err
	}
	s.fill(in, in.candidatesInto(s), ds.Dests).ds = ds
	return nil
}

// EvalSampled estimates the full-roster objective of wiring chosen from
// the destination sample ds: the Horvitz–Thompson expansion of the
// per-destination weighted costs, with its 95% band. For AggSum the
// estimate is unbiased for Eval's full-roster value of the same wiring.
func EvalSampled(in *Instance, chosen []int, ds *sampling.DestSample, s *Scratch) sampling.Estimate {
	best := in.bestPerDest(chosen, s)
	return ds.Estimate(func(j int) float64 {
		return in.pref(j) * in.Kind.finalize(best[j])
	})
}
