// Package cheat models the free riders of Sect. 4.5: nodes that announce
// false costs for their outgoing links through the link-state protocol to
// discourage others from selecting them as upstream neighbors.
package cheat

import "math/rand"

// Model describes a population of cost-misrepresenting free riders.
type Model struct {
	// Cheater[i] is true when node i misrepresents its outgoing costs.
	Cheater []bool
	// Factor multiplies announced outgoing-link costs: > 1 inflates delays
	// (the paper's main experiment uses 2), < 1 deflates them (footnote 10).
	Factor float64
}

// None returns a model with no cheaters.
func None(n int) *Model {
	return &Model{Cheater: make([]bool, n), Factor: 1}
}

// Single returns a model where only node `who` inflates costs by factor.
func Single(n, who int, factor float64) *Model {
	m := None(n)
	m.Cheater[who] = true
	m.Factor = factor
	return m
}

// Population returns a model with `count` cheaters drawn without
// replacement by rng, each inflating by factor.
func Population(n, count int, factor float64, rng *rand.Rand) *Model {
	m := None(n)
	m.Factor = factor
	perm := rng.Perm(n)
	if count > n {
		count = n
	}
	for _, v := range perm[:count] {
		m.Cheater[v] = true
	}
	return m
}

// Cheaters returns the ids of all cheating nodes.
func (m *Model) Cheaters() []int {
	var out []int
	for v, c := range m.Cheater {
		if c {
			out = append(out, v)
		}
	}
	return out
}

// Announced transforms the true cost of link (from -> to) into what `from`
// announces on the link-state protocol. Honest nodes announce the truth;
// cheaters scale their outgoing costs by Factor. For the bottleneck
// (bandwidth) algebra, callers should pass bottleneck=true so inflation
// *lowers* the announced bandwidth (an unattractive link means less
// bandwidth, not more).
func (m *Model) Announced(from int, trueCost float64, bottleneck bool) float64 {
	if m == nil || !m.Cheater[from] || m.Factor == 1 {
		return trueCost
	}
	if bottleneck {
		return trueCost / m.Factor
	}
	return trueCost * m.Factor
}
