package vis

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"egoist/internal/graph"
)

func TestCirclePositions(t *testing.T) {
	pos := CirclePositions(8)
	if len(pos) != 8 {
		t.Fatalf("%d positions", len(pos))
	}
	for i, p := range pos {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("position %d out of canvas: %+v", i, p)
		}
	}
}

func TestTopologySVGWellFormed(t *testing.T) {
	g := graph.New(5)
	for v := 0; v < 5; v++ {
		g.AddArc(v, (v+1)%5, float64(v+1))
	}
	var buf bytes.Buffer
	if err := Topology(&buf, g, CirclePositions(5), 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		if _, err := dec.Token(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
	for _, want := range []string{"<svg", "path", "circle", "5 nodes, 5 links"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestTopologyPositionMismatch(t *testing.T) {
	g := graph.New(3)
	var buf bytes.Buffer
	if err := Topology(&buf, g, CirclePositions(2), -1); err == nil {
		t.Fatal("mismatched positions accepted")
	}
}

func TestTopologyEmptyGraph(t *testing.T) {
	g := graph.New(3)
	var buf bytes.Buffer
	if err := Topology(&buf, g, CirclePositions(3), -1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 nodes, 0 links") {
		t.Fatal("empty graph header wrong")
	}
}

func TestFromWiring(t *testing.T) {
	g := FromWiring([][]int{{1}, {0}}, func(i, j int) float64 { return 7 })
	if w, ok := g.Weight(0, 1); !ok || w != 7 {
		t.Fatalf("weight %v,%v", w, ok)
	}
	g2 := FromWiring([][]int{{1}, {}}, nil)
	if w, _ := g2.Weight(0, 1); w != 1 {
		t.Fatalf("default weight %v", w)
	}
}
