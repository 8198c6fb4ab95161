// Package churn models node arrival and departure: trace-driven ON/OFF
// replay and synthetic ON/OFF processes with exponential or Pareto session
// and gap times, plus the paper's churn-rate metric (Sect. 4.4):
//
//	Churn = (1/T) Σ_events |U_{i-1} Δ U_i| / max{|U_{i-1}|, |U_i|}
//
// where U_i is the node set after membership event i and Δ is the symmetric
// set difference. A timescale knob rescales any process to sweep churn
// intensity the way the paper rescales its PlanetLab traces.
package churn

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Event is a single membership change: node Node turns ON (joins) or OFF
// (leaves) at time Time (in wiring-epoch units unless stated otherwise).
type Event struct {
	Time float64
	Node int
	On   bool
}

// Schedule is a time-ordered list of membership events for an n-node
// overlay, together with the initial ON set.
type Schedule struct {
	N         int
	InitialOn []bool
	Events    []Event
}

// Validate checks event times, ordering and node ranges. A time is an
// epoch count from the run's start: finite and not negative. (A NaN
// would pass every order check after it and stop a replay's cursor,
// which waits for Time < t, for good.)
func (s *Schedule) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("churn: bad node count %d", s.N)
	}
	if len(s.InitialOn) != s.N {
		return fmt.Errorf("churn: InitialOn has %d entries, want %d", len(s.InitialOn), s.N)
	}
	last := math.Inf(-1)
	for i, e := range s.Events {
		if !(e.Time >= 0 && e.Time <= math.MaxFloat64) {
			return fmt.Errorf("churn: event %d at time %v, want a finite time >= 0", i, e.Time)
		}
		if e.Time < last {
			return fmt.Errorf("churn: event %d out of order (%.3f < %.3f)", i, e.Time, last)
		}
		last = e.Time
		if e.Node < 0 || e.Node >= s.N {
			return fmt.Errorf("churn: event %d names node %d outside [0,%d)", i, e.Node, s.N)
		}
	}
	return nil
}

// Rescale returns a copy of the schedule with all event times multiplied by
// factor. factor < 1 compresses the timescale (more churn per unit time).
func (s *Schedule) Rescale(factor float64) *Schedule {
	out := &Schedule{N: s.N, InitialOn: append([]bool(nil), s.InitialOn...)}
	out.Events = make([]Event, len(s.Events))
	for i, e := range s.Events {
		e.Time *= factor
		out.Events[i] = e
	}
	return out
}

// Truncate returns a copy containing only events strictly before horizon.
func (s *Schedule) Truncate(horizon float64) *Schedule {
	out := &Schedule{N: s.N, InitialOn: append([]bool(nil), s.InitialOn...)}
	for _, e := range s.Events {
		if e.Time < horizon {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Rate computes the paper's churn metric over the horizon [0, T]: the sum
// over events of |symmetric difference| / max(set sizes), divided by T.
// With single-node events the symmetric difference is always 1, so this is
// effectively (events per unit time) weighted by 1/|U|.
func (s *Schedule) Rate(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	on := append([]bool(nil), s.InitialOn...)
	size := 0
	for _, b := range on {
		if b {
			size++
		}
	}
	total := 0.0
	for _, e := range s.Events {
		if e.Time >= horizon {
			break
		}
		prev := size
		if e.On && !on[e.Node] {
			on[e.Node] = true
			size++
		} else if !e.On && on[e.Node] {
			on[e.Node] = false
			size--
		} else {
			continue // no-op event
		}
		denom := prev
		if size > denom {
			denom = size
		}
		if denom > 0 {
			total += 1 / float64(denom)
		}
	}
	return total / horizon
}

// SessionDist draws ON (session) and OFF (gap) durations.
type SessionDist interface {
	// Sample returns a positive duration in epoch units.
	Sample(rng *rand.Rand) float64
}

// Exponential is a memoryless duration distribution with the given mean.
type Exponential struct{ Mean float64 }

// Sample draws an exponential duration.
func (d Exponential) Sample(rng *rand.Rand) float64 {
	return math.Max(1e-6, rng.ExpFloat64()*d.Mean)
}

// Pareto is a heavy-tailed duration distribution with shape Alpha > 1 and
// the given mean, matching the measured heavy-tailed session times of
// deployed P2P systems.
type Pareto struct {
	Mean  float64
	Alpha float64
}

// Sample draws a Pareto duration.
func (d Pareto) Sample(rng *rand.Rand) float64 {
	alpha := d.Alpha
	if alpha <= 1 {
		alpha = 1.5
	}
	xm := d.Mean * (alpha - 1) / alpha
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	return math.Max(1e-6, xm/math.Pow(u, 1/alpha))
}

// SyntheticConfig parameterizes GenerateSynthetic.
type SyntheticConfig struct {
	N       int
	Horizon float64     // schedule length in epoch units
	On      SessionDist // ON-period distribution
	Off     SessionDist // OFF-period distribution
	Seed    int64
	StartOn float64 // probability a node starts ON; default 0.9
}

// GenerateSynthetic builds an ON/OFF schedule where each node independently
// alternates ON and OFF periods drawn from the configured distributions —
// the synthetic counterpart of the paper's rescaled PlanetLab traces.
func GenerateSynthetic(cfg SyntheticConfig) (*Schedule, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("churn: bad N %d", cfg.N)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("churn: bad horizon %v", cfg.Horizon)
	}
	if cfg.On == nil || cfg.Off == nil {
		return nil, fmt.Errorf("churn: missing ON/OFF distributions")
	}
	startOn := cfg.StartOn
	if startOn == 0 {
		startOn = 0.9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Schedule{N: cfg.N, InitialOn: make([]bool, cfg.N)}
	for v := 0; v < cfg.N; v++ {
		on := rng.Float64() < startOn
		s.InitialOn[v] = on
		t := 0.0
		for t < cfg.Horizon {
			var dur float64
			if on {
				dur = cfg.On.Sample(rng)
			} else {
				dur = cfg.Off.Sample(rng)
			}
			t += dur
			if t >= cfg.Horizon {
				break
			}
			on = !on
			s.Events = append(s.Events, Event{Time: t, Node: v, On: on})
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Time < s.Events[j].Time })
	return s, nil
}

// WriteTrace serializes a schedule: "churn <n>" header, one
// "init <0|1>..." line, then "t node on" event lines.
func WriteTrace(w io.Writer, s *Schedule) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "churn %d\ninit", s.N); err != nil {
		return err
	}
	for _, b := range s.InitialOn {
		v := 0
		if b {
			v = 1
		}
		if _, err := fmt.Fprintf(bw, " %d", v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}
	for _, e := range s.Events {
		on := 0
		if e.On {
			on = 1
		}
		if _, err := fmt.Fprintf(bw, "%.6f %d %d\n", e.Time, e.Node, on); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the format written by WriteTrace.
func ReadTrace(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("churn: empty trace")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 || header[0] != "churn" {
		return nil, fmt.Errorf("churn: bad header %q", sc.Text())
	}
	n, err := strconv.Atoi(header[1])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("churn: bad node count %q", header[1])
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("churn: missing init line")
	}
	initFields := strings.Fields(sc.Text())
	if len(initFields) != n+1 || initFields[0] != "init" {
		return nil, fmt.Errorf("churn: bad init line %q", sc.Text())
	}
	s := &Schedule{N: n, InitialOn: make([]bool, n)}
	for i := 0; i < n; i++ {
		s.InitialOn[i] = initFields[i+1] == "1"
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("churn: bad event line %q", line)
		}
		t, err1 := strconv.ParseFloat(f[0], 64)
		node, err2 := strconv.Atoi(f[1])
		on, err3 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("churn: bad event line %q", line)
		}
		s.Events = append(s.Events, Event{Time: t, Node: node, On: on == 1})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
