package cheat

import (
	"math/rand"
	"testing"
)

func TestNoneAnnouncesTruth(t *testing.T) {
	m := None(5)
	if got := m.Announced(2, 10, false); got != 10 {
		t.Fatalf("honest announcement = %v, want 10", got)
	}
}

func TestNilModelSafe(t *testing.T) {
	var m *Model
	if got := m.Announced(0, 7, false); got != 7 {
		t.Fatalf("nil model announcement = %v, want 7", got)
	}
}

func TestSingleInflates(t *testing.T) {
	m := Single(5, 2, 2)
	if got := m.Announced(2, 10, false); got != 20 {
		t.Fatalf("cheater announcement = %v, want 20", got)
	}
	if got := m.Announced(1, 10, false); got != 10 {
		t.Fatalf("honest neighbor announcement = %v, want 10", got)
	}
	cs := m.Cheaters()
	if len(cs) != 1 || cs[0] != 2 {
		t.Fatalf("Cheaters = %v, want [2]", cs)
	}
}

func TestBottleneckInflationLowersBandwidth(t *testing.T) {
	m := Single(5, 0, 2)
	if got := m.Announced(0, 100, true); got != 50 {
		t.Fatalf("bandwidth cheat = %v, want 50 (halved)", got)
	}
}

func TestPopulationCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Population(50, 16, 2, rng)
	if got := len(m.Cheaters()); got != 16 {
		t.Fatalf("population = %d, want 16", got)
	}
	over := Population(5, 100, 2, rng)
	if got := len(over.Cheaters()); got != 5 {
		t.Fatalf("over-population = %d, want clamped to 5", got)
	}
}
