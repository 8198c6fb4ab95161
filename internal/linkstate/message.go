// Package linkstate implements EGOIST's overlay link-state routing
// protocol (Sect. 3.1, 4.3): every node periodically broadcasts a
// link-state announcement (LSA) carrying its ID and the IDs and costs of
// its k established links; flooding disseminates LSAs so each node learns
// the full residual graph G−i. The wire format matches the paper's
// accounting: a 192-bit header plus 32 bits per neighbor.
//
// The protocol is transport-agnostic: the same node logic runs over the
// in-memory transport (simulations, tests) and over UDP (the live
// deployment in cmd/egoistd).
package linkstate

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Message types.
const (
	// TypeLSA is a link-state announcement.
	TypeLSA = 1
	// TypeHello is a heartbeat probing a donated (backbone) link.
	TypeHello = 2
	// TypeHelloAck acknowledges a Hello.
	TypeHelloAck = 3
	// TypeEcho is an application-level ping used for delay measurement.
	TypeEcho = 4
	// TypeEchoReply answers an Echo.
	TypeEchoReply = 5
)

// HeaderBytes is the LSA header size: 192 bits per Sect. 4.3.
const HeaderBytes = 24

// NeighborBytes is the per-neighbor payload size: 32 bits per Sect. 4.3.
const NeighborBytes = 4

const magic = 0xE601

// costUnit is the fixed-point resolution of announced costs (0.1 ms or
// 0.1 Mbps per tick).
const costUnit = 0.1

// maxCost is the largest representable announced cost.
const maxCost = costUnit * float64(math.MaxUint16)

// Neighbor is one announced link.
type Neighbor struct {
	ID   uint16
	Cost float64
}

// LSA is a link-state announcement from one node.
type LSA struct {
	Origin    uint16
	Seq       uint64
	Neighbors []Neighbor
}

// Size returns the encoded size in bytes.
func (l *LSA) Size() int { return HeaderBytes + NeighborBytes*len(l.Neighbors) }

// Marshal encodes the LSA in the 24-byte-header + 4-bytes-per-neighbor
// wire format. Costs saturate at the fixed-point maximum.
func (l *LSA) Marshal() []byte {
	buf := make([]byte, l.Size())
	binary.BigEndian.PutUint16(buf[0:], magic)
	buf[2] = 1 // version
	buf[3] = TypeLSA
	binary.BigEndian.PutUint32(buf[4:], uint32(l.Origin))
	binary.BigEndian.PutUint64(buf[8:], l.Seq)
	binary.BigEndian.PutUint16(buf[16:], uint16(len(l.Neighbors)))
	// buf[18:24] is padding, part of the 192-bit header budget.
	off := HeaderBytes
	for _, nb := range l.Neighbors {
		binary.BigEndian.PutUint16(buf[off:], nb.ID)
		binary.BigEndian.PutUint16(buf[off+2:], encodeCost(nb.Cost))
		off += NeighborBytes
	}
	return buf
}

// UnmarshalLSA decodes an LSA, validating magic, version, type, and length.
func UnmarshalLSA(data []byte) (*LSA, error) {
	if len(data) < HeaderBytes {
		return nil, fmt.Errorf("linkstate: short LSA (%d bytes)", len(data))
	}
	if binary.BigEndian.Uint16(data[0:]) != magic {
		return nil, fmt.Errorf("linkstate: bad magic")
	}
	if data[2] != 1 {
		return nil, fmt.Errorf("linkstate: unsupported version %d", data[2])
	}
	if data[3] != TypeLSA {
		return nil, fmt.Errorf("linkstate: not an LSA (type %d)", data[3])
	}
	count := int(binary.BigEndian.Uint16(data[16:]))
	want := HeaderBytes + NeighborBytes*count
	if len(data) != want {
		return nil, fmt.Errorf("linkstate: LSA length %d, want %d for %d neighbors", len(data), want, count)
	}
	l := &LSA{
		Origin: uint16(binary.BigEndian.Uint32(data[4:])),
		Seq:    binary.BigEndian.Uint64(data[8:]),
	}
	off := HeaderBytes
	for i := 0; i < count; i++ {
		l.Neighbors = append(l.Neighbors, Neighbor{
			ID:   binary.BigEndian.Uint16(data[off:]),
			Cost: decodeCost(binary.BigEndian.Uint16(data[off+2:])),
		})
		off += NeighborBytes
	}
	return l, nil
}

func encodeCost(c float64) uint16 {
	if c < 0 || math.IsNaN(c) {
		return 0
	}
	if c >= maxCost {
		return math.MaxUint16
	}
	return uint16(c/costUnit + 0.5)
}

func decodeCost(u uint16) float64 { return float64(u) * costUnit }

// Control is a small fixed-size control message (hello, echo).
type Control struct {
	Type  byte
	From  uint16
	Token uint64 // sequence or timestamp payload
}

// controlBytes is the control message wire size.
const controlBytes = 16

// Marshal encodes a control message.
func (c *Control) Marshal() []byte {
	buf := make([]byte, controlBytes)
	binary.BigEndian.PutUint16(buf[0:], magic)
	buf[2] = 1
	buf[3] = c.Type
	binary.BigEndian.PutUint16(buf[4:], c.From)
	binary.BigEndian.PutUint64(buf[8:], c.Token)
	return buf
}

// UnmarshalControl decodes a control message.
func UnmarshalControl(data []byte) (*Control, error) {
	if len(data) != controlBytes {
		return nil, fmt.Errorf("linkstate: control length %d, want %d", len(data), controlBytes)
	}
	if binary.BigEndian.Uint16(data[0:]) != magic {
		return nil, fmt.Errorf("linkstate: bad magic")
	}
	t := data[3]
	if (t < TypeHello || t > TypeEchoReply) && t != TypeJoin {
		return nil, fmt.Errorf("linkstate: bad control type %d", t)
	}
	return &Control{
		Type:  t,
		From:  binary.BigEndian.Uint16(data[4:]),
		Token: binary.BigEndian.Uint64(data[8:]),
	}, nil
}

// MessageType peeks at a packet's type without a full decode.
func MessageType(data []byte) (byte, error) {
	if len(data) < 4 || binary.BigEndian.Uint16(data[0:]) != magic {
		return 0, fmt.Errorf("linkstate: unrecognized packet")
	}
	return data[3], nil
}
