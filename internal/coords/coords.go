// Package coords implements a Vivaldi-style virtual coordinate system —
// the stand-in for the pyxida system EGOIST uses for passive delay
// estimation (Sect. 4.1). Each node maintains a point in a 2-D Euclidean
// space plus a non-negative "height" modeling its access-link delay, and
// updates it with a spring-relaxation rule on every RTT observation.
//
// Coordinate estimates trade accuracy for probing cost: a node learns the
// distance to every other node from a single query instead of O(n) pings.
// The embedding error (typically 10–30 % median) is exactly the effect the
// paper's Fig. 1 (top-right) exercises.
package coords

import (
	"math"
	"sync"
)

// Coord is a point in the 2-D + height Vivaldi space.
type Coord struct {
	X, Y   float64
	Height float64 // non-negative access-link component
}

// Dist returns the predicted one-way delay between two coordinates:
// Euclidean distance in the plane plus both heights.
func Dist(a, b Coord) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y) + a.Height + b.Height
}

// Node is one participant's view of the coordinate system. It is safe for
// concurrent use: the live overlay updates it from its probing goroutine
// while the wiring goroutine queries it.
type Node struct {
	mu     sync.Mutex
	coord  Coord
	weight float64 // local error estimate in [0,1]; lower is more confident

	ce float64 // error sensitivity constant
	cc float64 // coordinate update gain
}

// NewNode returns a node at the origin with maximal error.
func NewNode() *Node {
	return &Node{weight: 1, ce: 0.25, cc: 0.25, coord: Coord{Height: 0.1}}
}

// Coord returns the node's current coordinate.
func (n *Node) Coord() Coord {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.coord
}

// ErrorEstimate returns the node's current local error estimate in [0,1].
func (n *Node) ErrorEstimate() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.weight
}

// Observe updates the node's coordinate given a measured one-way delay (ms)
// to a remote node with the given coordinate and error estimate. It
// implements the Vivaldi adaptive-timestep update.
func (n *Node) Observe(remote Coord, remoteErr, measuredMS float64) {
	if measuredMS <= 0 || math.IsNaN(measuredMS) || math.IsInf(measuredMS, 0) {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()

	predicted := Dist(n.coord, remote)
	sampleErr := math.Abs(predicted-measuredMS) / measuredMS
	if sampleErr > 1 {
		sampleErr = 1
	}

	// Confidence-weighted blend of local and sample error.
	w := n.weight / (n.weight + math.Max(remoteErr, 1e-6))
	n.weight = sampleErr*n.ce*w + n.weight*(1-n.ce*w)

	// Spring force along the unit vector from remote to local: when the
	// prediction exceeds the measurement the spring is over-stretched and
	// pulls the local coordinate toward the remote one, and vice versa.
	force := predicted - measuredMS
	ux, uy := unitVector(n.coord, remote)
	delta := n.cc * w
	n.coord.X -= delta * force * ux
	n.coord.Y -= delta * force * uy
	n.coord.Height -= delta * force * (n.coord.Height / math.Max(predicted, 1e-9))
	if n.coord.Height < 0.05 {
		n.coord.Height = 0.05
	}
}

// unitVector returns the unit vector pointing from b to a in the plane,
// choosing a pseudo-random deterministic direction when the points coincide.
func unitVector(a, b Coord) (float64, float64) {
	dx, dy := a.X-b.X, a.Y-b.Y
	d := math.Hypot(dx, dy)
	if d < 1e-12 {
		return 1, 0
	}
	return dx / d, dy / d
}

// System is a registry of coordinate nodes for a whole overlay, mirroring
// the pyxida deployment: one query returns the distance estimates from one
// node to all others (the ≈(320+32n)/T bps message of Sect. 4.3).
type System struct {
	mu    sync.RWMutex
	nodes []*Node
}

// NewSystem creates a system with n coordinate nodes.
func NewSystem(n int) *System {
	s := &System{nodes: make([]*Node, n)}
	for i := range s.nodes {
		s.nodes[i] = NewNode()
	}
	return s
}

// N returns the number of nodes.
func (s *System) N() int { return len(s.nodes) }

// Node returns the i-th node.
func (s *System) Node(i int) *Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodes[i]
}

// Estimate returns the coordinate-predicted one-way delay from i to j.
func (s *System) Estimate(i, j int) float64 {
	if i == j {
		return 0
	}
	s.mu.RLock()
	a, b := s.nodes[i], s.nodes[j]
	s.mu.RUnlock()
	return Dist(a.Coord(), b.Coord())
}

// Observe routes a delay observation between nodes i and j into node i's
// coordinate update.
func (s *System) Observe(i, j int, measuredMS float64) {
	s.mu.RLock()
	a, b := s.nodes[i], s.nodes[j]
	s.mu.RUnlock()
	a.Observe(b.Coord(), b.ErrorEstimate(), measuredMS)
}

// Calibrate runs rounds of all-pairs gossip against the true delay function,
// converging the embedding the way a deployed pyxida would after its warmup
// period. sampler(i,j) must return a measured one-way delay in ms.
func (s *System) Calibrate(rounds int, sampler func(i, j int) float64) {
	n := s.N()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					s.Observe(i, j, sampler(i, j))
				}
			}
		}
	}
}
