package sim

import (
	"fmt"
	"math"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/sampling"
)

// rowsProbe is the checkRows probe: a scaleProbe that re-derives every
// row the engine reads from the directory instead of computing it
// (checkProposal) and compares the directory graph with the wiring
// (checkDirectory), failing the run on the first difference.
func rowsProbe() *scaleProbe {
	return &scaleProbe{checkProposal: (*scaleWorker).checkProposal, checkDirectory: (*scaleEngine).checkDirectory}
}

// checkDirectory is the checkRows probe of the directory graph at time
// t, after the named phase: every node's out-arcs there must be its
// wiring priced by Net.Delay, in wiring order — so a departed node has
// none — and no wiring may link a departed node. The proposers' rows are
// only as exact as this graph.
func (e *scaleEngine) checkDirectory(phase string, t float64) error {
	g := e.pool.dir.Graph()
	for u, w := range e.wiring {
		out := g.Out(u)
		same := len(out) == len(w)
		for x := 0; same && x < len(w); x++ {
			same = out[x] == graph.Arc{To: w[x], W: e.c.Net.Delay(u, w[x])}
		}
		if !same {
			return fmt.Errorf("sim: after %s at t=%v the directory holds arcs %v for node %d, whose wiring is %v", phase, t, out, u, w)
		}
		for _, v := range w {
			if !e.active[u] || !e.active[v] {
				return fmt.Errorf("sim: after %s at t=%v the wiring links %d→%d with active = %v→%v", phase, t, u, v, e.active[u], e.active[v])
			}
		}
	}
	return nil
}

// checkProposal is the checkRows probe of what proposeScale read rather
// than computed. A proposer that read its live row from the directory
// runs the seeded Dijkstra as well, and the two rows must agree bit for
// bit. The solver block it filled straight from the directory rows
// (cost, pref) is built again through core's own fill, from a dense
// residual Instance over a local id space of the candidates, the other
// sampled destinations and self, with the self-path clamp, and must
// agree bit for bit too.
func (w *scaleWorker) checkProposal(e *scaleEngine, i int, rowI []float64, ds *sampling.DestSample, demand func(i, j int) float64, cost, pref []float64) error {
	c, dir := e.c, e.pool.dir
	if dir.Row(i) != nil {
		for v, d := range w.seededRow(c, dir.Graph(), i, e.wiring[i]) {
			if math.Float64bits(d) != math.Float64bits(rowI[v]) {
				return fmt.Errorf("directory row says %v to node %d, seeded Dijkstra %v", rowI[v], v, d)
			}
		}
	}
	C := len(w.gcands)
	local := append([]int(nil), w.gcands...)
	lid := make(map[int]int, C+len(ds.Dests))
	for a, v := range local {
		lid[v] = a
	}
	for _, j := range ds.Dests {
		if _, ok := lid[j]; !ok {
			lid[j] = len(local)
			local = append(local, j)
		}
	}
	L := len(local) + 1
	self := L - 1
	in := &core.Instance{
		Self: self, Kind: core.Additive,
		Direct: make([]float64, L), Pref: make([]float64, L),
		Resid: make([][]float64, L), Candidates: make([]int, C),
	}
	for a := 0; a < C; a++ {
		row := make([]float64, L)
		if grow := w.grows[a]; grow == nil {
			for b := range row {
				row[b] = graph.Inf
			}
		} else {
			toSelf := grow[i]
			for b, gb := range local {
				d := grow[gb]
				if d < graph.Inf && toSelf < graph.Inf {
					if via := toSelf + rowI[gb]; via <= d*(1+1e-12)+1e-9 && via >= d*(1-1e-12)-1e-9 {
						d = graph.Inf
					}
				}
				row[b] = d
			}
			row[self] = graph.Inf
		}
		row[a] = 0
		in.Resid[a], in.Candidates[a] = row, a
	}
	for b, gb := range local {
		in.Direct[b] = c.Net.Delay(i, gb)
		in.Pref[b] = 1
		if demand != nil {
			in.Pref[b] = demand(i, gb)
		}
	}
	want, wantPref, err := core.SampledBlock(in, ds.Remap(func(j int) int { return lid[j] }))
	if err != nil {
		return err
	}
	D := len(ds.Dests)
	for x, v := range want {
		if math.Float64bits(v) != math.Float64bits(cost[x]) {
			return fmt.Errorf("block cost of candidate %d to node %d is %v, the residual instance's %v", w.gcands[x/D], ds.Dests[x%D], cost[x], v)
		}
	}
	for di, v := range wantPref {
		if math.Float64bits(v) != math.Float64bits(pref[di]) {
			return fmt.Errorf("block weight of node %d is %v, the residual instance's %v", ds.Dests[di], pref[di], v)
		}
	}
	return nil
}
