// Package vis renders overlay topology snapshots as SVG — the equivalent
// of the live topology demonstration the paper's Sect. 7 describes on the
// EGOIST project site. Nodes are laid out on a circle; directed overlay
// links are drawn with their costs encoded in stroke intensity.
package vis

import (
	"fmt"
	"io"
	"math"
	"strings"

	"egoist/internal/graph"
)

// NodePos places a node on the canvas in abstract [0,1]² coordinates.
type NodePos struct {
	X, Y  float64
	Label string
}

// CirclePositions lays n nodes on a circle in id order.
func CirclePositions(n int) []NodePos {
	out := make([]NodePos, n)
	for i := range out {
		angle := 2 * math.Pi * float64(i) / float64(n)
		out[i] = NodePos{
			X:     0.5 + 0.45*math.Cos(angle),
			Y:     0.5 + 0.45*math.Sin(angle),
			Label: fmt.Sprintf("%d", i),
		}
	}
	return out
}

// Topology renders the overlay graph as an SVG. Positions must cover every
// node id in g. highlight, when >= 0, emphasizes one node and its links.
func Topology(w io.Writer, g *graph.Digraph, pos []NodePos, highlight int) error {
	if len(pos) != g.N() {
		return fmt.Errorf("vis: %d positions for %d nodes", len(pos), g.N())
	}
	const width, height = 720, 480
	const margin = 30
	px := func(p NodePos) (float64, float64) {
		return margin + p.X*(width-2*margin), margin + p.Y*(height-2*margin)
	}

	// Normalize costs for stroke shading.
	minW, maxW := math.Inf(1), math.Inf(-1)
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			minW = math.Min(minW, a.W)
			maxW = math.Max(maxW, a.W)
		}
	}
	if math.IsInf(minW, 1) {
		minW, maxW = 0, 1
	}
	if maxW == minW {
		maxW = minW + 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="#fcfcfc"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="13" font-weight="bold">EGOIST overlay: %d nodes, %d links</text>`+"\n",
		margin, g.N(), g.NumArcs())

	// Links first, nodes on top.
	for u := 0; u < g.N(); u++ {
		x1, y1 := px(pos[u])
		for _, a := range g.Out(u) {
			x2, y2 := px(pos[a.To])
			shade := int(200 - 160*(a.W-minW)/(maxW-minW)) // cheap links darker
			color := fmt.Sprintf("#%02x%02x%02x", shade, shade, shade)
			width := 1.0
			if highlight >= 0 && (u == highlight || a.To == highlight) {
				color, width = "#d62728", 1.8
			}
			// Slight curve so antiparallel links don't overlap: draw a
			// quadratic with a perpendicular offset control point.
			mx, my := (x1+x2)/2, (y1+y2)/2
			dx, dy := x2-x1, y2-y1
			norm := math.Hypot(dx, dy)
			if norm == 0 {
				continue
			}
			ox, oy := -dy/norm*6, dx/norm*6
			fmt.Fprintf(&b, `<path d="M %.1f %.1f Q %.1f %.1f %.1f %.1f" fill="none" stroke="%s" stroke-width="%.1f"/>`+"\n",
				x1, y1, mx+ox, my+oy, x2, y2, color, width)
			// Arrowhead dot near the target.
			tx, ty := x2-dx/norm*8, y2-dy/norm*8
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="1.6" fill="%s"/>`+"\n", tx, ty, color)
		}
	}
	for v := 0; v < g.N(); v++ {
		x, y := px(pos[v])
		fill := "#1f77b4"
		r := 5.0
		if v == highlight {
			fill, r = "#d62728", 7
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n", x, y, r, fill)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="9" text-anchor="middle" fill="#333333">%s</text>`+"\n",
			x, y-8, escape(pos[v].Label))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// FromWiring builds a displayable graph from a wiring and a cost function.
func FromWiring(wiring [][]int, cost func(i, j int) float64) *graph.Digraph {
	g := graph.New(len(wiring))
	for i, ws := range wiring {
		for _, j := range ws {
			w := 1.0
			if cost != nil {
				w = cost(i, j)
			}
			g.AddArc(i, j, w)
		}
	}
	return g
}
