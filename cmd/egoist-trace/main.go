// Command egoist-trace generates and inspects the trace files the
// simulators consume: all-pairs delay matrices (the format of the paper's
// n=295 PlanetLab ping dataset) and ON/OFF churn schedules.
//
// Examples:
//
//	egoist-trace delays -n 295 -model geo -o delays.txt
//	egoist-trace delays -n 100 -model ba -o as-like.txt
//	egoist-trace churn  -n 50 -horizon 600 -on 25 -off 3 -o churn.txt
//	egoist-trace info   -in delays.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"egoist/internal/churn"
	"egoist/internal/topology"
	"egoist/internal/underlay"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "delays":
		delaysCmd(os.Args[2:])
	case "churn":
		churnCmd(os.Args[2:])
	case "info":
		infoCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: egoist-trace <delays|churn|info> [flags]
  delays -n N -model geo|waxman|ba|ring -seed S -o FILE
  churn  -n N -horizon H -on MEAN -off MEAN -pareto -seed S -o FILE
  info   -in FILE`)
	os.Exit(2)
}

func delaysCmd(args []string) {
	fs := flag.NewFlagSet("delays", flag.ExitOnError)
	n := fs.Int("n", 295, "number of sites")
	model := fs.String("model", "geo", "geo | waxman | ba | ring")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	var m topology.DelayMatrix
	rng := rand.New(rand.NewSource(*seed))
	switch *model {
	case "geo":
		u, err := underlay.New(underlay.Config{N: *n, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		m = topology.NewMatrix(*n)
		for i := 0; i < *n; i++ {
			for j := 0; j < *n; j++ {
				if i != j {
					m[i][j] = u.Delay(i, j)
				}
			}
		}
	case "waxman":
		m = topology.Waxman(*n, 200, rng)
	case "ba":
		m = topology.BarabasiAlbert(*n, 2, rng)
	case "ring":
		m = topology.RingLattice(*n, 10)
	default:
		fatal(fmt.Errorf("unknown model %q", *model))
	}
	writeOut(*out, func(w io.Writer) error { return topology.WriteTrace(w, m) })
}

func churnCmd(args []string) {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	n := fs.Int("n", 50, "number of nodes")
	horizon := fs.Float64("horizon", 100, "schedule length in epochs")
	onMean := fs.Float64("on", 25, "mean ON duration (epochs)")
	offMean := fs.Float64("off", 3, "mean OFF duration (epochs)")
	pareto := fs.Bool("pareto", false, "heavy-tailed (Pareto 1.8) session times")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	var on churn.SessionDist = churn.Exponential{Mean: *onMean}
	if *pareto {
		on = churn.Pareto{Mean: *onMean, Alpha: 1.8}
	}
	s, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: *n, Horizon: *horizon,
		On: on, Off: churn.Exponential{Mean: *offMean},
		Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d events, churn rate %.5f per epoch\n",
		len(s.Events), s.Rate(*horizon))
	writeOut(*out, func(w io.Writer) error { return churn.WriteTrace(w, s) })
}

func infoCmd(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "trace file")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("missing -in"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// Try the delay format first, then churn.
	if m, err := topology.ReadTrace(f); err == nil {
		min, max, sum := m[0][1], m[0][1], 0.0
		count := 0
		for i := range m {
			for j := range m[i] {
				if i == j {
					continue
				}
				d := m[i][j]
				if d < min {
					min = d
				}
				if d > max {
					max = d
				}
				sum += d
				count++
			}
		}
		fmt.Printf("delay matrix: n=%d pairs=%d min=%.2fms mean=%.2fms max=%.2fms\n",
			m.N(), count, min, sum/float64(count), max)
		return
	}
	if _, err := f.Seek(0, 0); err != nil {
		fatal(err)
	}
	if s, err := churn.ReadTrace(f); err == nil {
		horizon := 0.0
		if len(s.Events) > 0 {
			horizon = s.Events[len(s.Events)-1].Time
		}
		on := 0
		for _, b := range s.InitialOn {
			if b {
				on++
			}
		}
		fmt.Printf("churn schedule: n=%d events=%d initial-on=%d span=%.1f epochs rate=%.5f\n",
			s.N, len(s.Events), on, horizon, s.Rate(horizon+1e-9))
		return
	}
	fatal(fmt.Errorf("%s: not a recognized delay or churn trace", *in))
}

// writeOut runs write on a new file at path, or on stdout when path is
// empty.
func writeOut(path string, write func(io.Writer) error) {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := write(w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "egoist-trace: %v\n", err)
	os.Exit(1)
}
