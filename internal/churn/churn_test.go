package churn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func synthetic(t *testing.T, cfg SyntheticConfig) *Schedule {
	t.Helper()
	s, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultCfg(seed int64) SyntheticConfig {
	return SyntheticConfig{
		N:       50,
		Horizon: 100,
		On:      Exponential{Mean: 20},
		Off:     Exponential{Mean: 4},
		Seed:    seed,
	}
}

func TestGenerateSyntheticValid(t *testing.T) {
	s := synthetic(t, defaultCfg(1))
	if s.N != 50 {
		t.Fatalf("N = %d", s.N)
	}
	if len(s.Events) == 0 {
		t.Fatal("no churn events generated")
	}
	for _, e := range s.Events {
		if e.Time < 0 || e.Time >= 100 {
			t.Fatalf("event outside horizon: %+v", e)
		}
	}
}

func TestGenerateSyntheticErrors(t *testing.T) {
	if _, err := GenerateSynthetic(SyntheticConfig{N: 0, Horizon: 1, On: Exponential{1}, Off: Exponential{1}}); err == nil {
		t.Fatal("want error for N=0")
	}
	if _, err := GenerateSynthetic(SyntheticConfig{N: 5, Horizon: 0, On: Exponential{1}, Off: Exponential{1}}); err == nil {
		t.Fatal("want error for horizon=0")
	}
	if _, err := GenerateSynthetic(SyntheticConfig{N: 5, Horizon: 1}); err == nil {
		t.Fatal("want error for missing distributions")
	}
}

func TestEventsAlternatePerNode(t *testing.T) {
	s := synthetic(t, defaultCfg(2))
	state := append([]bool(nil), s.InitialOn...)
	for _, e := range s.Events {
		if e.On == state[e.Node] {
			t.Fatalf("node %d event does not alternate state", e.Node)
		}
		state[e.Node] = e.On
	}
}

func TestRescaleCompressesTime(t *testing.T) {
	s := synthetic(t, defaultCfg(3))
	half := s.Rescale(0.5)
	if err := half.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range s.Events {
		if math.Abs(half.Events[i].Time-s.Events[i].Time*0.5) > 1e-12 {
			t.Fatal("rescale did not halve event times")
		}
	}
	// Same events in half the horizon => roughly double the rate.
	r1 := s.Rate(100)
	r2 := half.Rate(50)
	if r2 < r1*1.5 {
		t.Fatalf("rescaled rate %v not ~2x original %v", r2, r1)
	}
}

func TestTruncate(t *testing.T) {
	s := synthetic(t, defaultCfg(4))
	cut := s.Truncate(10)
	for _, e := range cut.Events {
		if e.Time >= 10 {
			t.Fatalf("event past horizon survived truncate: %+v", e)
		}
	}
}

func TestRateHandMade(t *testing.T) {
	// 2 nodes both ON; one leaves at t=1: symmetric diff 1, max size 2.
	s := &Schedule{
		N:         2,
		InitialOn: []bool{true, true},
		Events:    []Event{{Time: 1, Node: 0, On: false}},
	}
	got := s.Rate(10)
	want := (1.0 / 2.0) / 10.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Rate = %v, want %v", got, want)
	}
}

func TestRateIgnoresNoOpEvents(t *testing.T) {
	s := &Schedule{
		N:         2,
		InitialOn: []bool{true, true},
		Events:    []Event{{Time: 1, Node: 0, On: true}}, // already ON
	}
	if got := s.Rate(10); got != 0 {
		t.Fatalf("Rate = %v, want 0 for no-op event", got)
	}
}

func TestRateZeroHorizon(t *testing.T) {
	s := &Schedule{N: 1, InitialOn: []bool{true}}
	if s.Rate(0) != 0 {
		t.Fatal("Rate over empty horizon should be 0")
	}
}

func TestParetoHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Pareto{Mean: 10, Alpha: 1.5}
	var sum float64
	maxv := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v <= 0 {
			t.Fatal("non-positive Pareto sample")
		}
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	meanv := sum / n
	if meanv < 5 || meanv > 20 {
		t.Fatalf("Pareto sample mean %v, want near 10", meanv)
	}
	if maxv < 100 {
		t.Fatalf("Pareto max %v suspiciously small; tail not heavy", maxv)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := Exponential{Mean: 7}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	if meanv := sum / n; math.Abs(meanv-7) > 0.5 {
		t.Fatalf("Exponential mean %v, want ~7", meanv)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	s := synthetic(t, defaultCfg(7))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != s.N || len(got.Events) != len(s.Events) {
		t.Fatalf("round trip mismatch: N %d/%d events %d/%d", got.N, s.N, len(got.Events), len(s.Events))
	}
	for i := range s.InitialOn {
		if got.InitialOn[i] != s.InitialOn[i] {
			t.Fatal("InitialOn mismatch")
		}
	}
	for i := range s.Events {
		a, b := got.Events[i], s.Events[i]
		if a.Node != b.Node || a.On != b.On || math.Abs(a.Time-b.Time) > 1e-5 {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"churn x\ninit 1\n",
		"churn 2\ninit 1\n", // short init
		"churn 1\ninit 1\nbadline\n",
		"churn 1\ninit 1\n5 0 1\n1 0 0\n", // out of order
		"churn 1\ninit 1\n1 7 0\n",        // bad node
	}
	for _, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("expected error for %q", in)
		}
	}
}

// TestValidateRejectsBadTimes: a time must be a finite epoch count from
// the run's start. A NaN is the case an order check alone misses: it
// compares false both ways, so it passes, and so does the out-of-order
// event behind it. Each case is checked as a Schedule and as a trace.
func TestValidateRejectsBadTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		times []float64
		ok    bool
	}{
		{"ordered", []float64{0, 0.5, 0.5, 3}, true},
		{"NaN hides disorder", []float64{1, math.NaN(), 0.5}, false},
		{"NaN last", []float64{1, math.NaN()}, false},
		{"+Inf", []float64{1, math.Inf(1)}, false},
		{"-Inf", []float64{math.Inf(-1), 1}, false},
		{"negative", []float64{-0.25, 1}, false},
		{"negative zero", []float64{math.Copysign(0, -1), 1}, true},
	} {
		s := &Schedule{N: 3, InitialOn: []bool{true, true, true}}
		var trace strings.Builder
		trace.WriteString("churn 3\ninit 1 1 1\n")
		for i, tm := range tc.times {
			s.Events = append(s.Events, Event{Time: tm, Node: i % 3})
			fmt.Fprintf(&trace, "%v %d 0\n", tm, i%3)
		}
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok %v", tc.name, err, tc.ok)
		}
		if _, err := ReadTrace(strings.NewReader(trace.String())); (err == nil) != tc.ok {
			t.Errorf("%s: ReadTrace of %q = %v, want ok %v", tc.name, trace.String(), err, tc.ok)
		}
	}
}

// Property: churn rate is non-negative and grows (weakly) as the timescale
// compresses.
func TestRateMonotoneUnderRescaleProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, err := GenerateSynthetic(SyntheticConfig{
			N: 10, Horizon: 50,
			On:   Exponential{Mean: 10},
			Off:  Exponential{Mean: 2},
			Seed: seed,
		})
		if err != nil {
			return false
		}
		r1 := s.Rate(50)
		r2 := s.Rescale(0.5).Rate(25)
		return r1 >= 0 && r2 >= r1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
