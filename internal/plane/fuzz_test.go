package plane

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzBinaryBatch fuzzes the one decoder in this package that reads
// bytes off a raw socket: Server.AnswerBinary, the payload handler behind
// both ServeBinary and POST /routes.bin. Properties: arbitrary bytes
// never panic; a rejected request appends nothing; every accepted
// request's response parses with DecodeBatchResponse, carries one result
// per pair on the snapshot's epoch, and each result's status, cost, via
// and path equal what the JSON path (answerPair) answers for the same
// pair, in one-hop and in route mode. The snapshot has departed nodes
// and a 4-row cache, so unreachable pairs, invalid pairs, pair searches,
// fills and evictions all occur. Seeds are AppendBatchRequest outputs
// plus truncations and count/length corruption, and a route batch of
// cold misses that a repeated source's fill lands in the middle of.
//
// CI runs this as a short -fuzztime smoke step; run it longer locally
// with: go test ./internal/plane -run '^$' -fuzz FuzzBinaryBatch
func FuzzBinaryBatch(f *testing.F) {
	const n = 60
	active := make([]bool, n)
	for i := range active {
		active[i] = i%7 != 3
	}
	snap := Compile(5, randomWiring(n, 3, rand.New(rand.NewSource(21))), active, testNet(f, n), Options{RouteCacheRows: 4})
	srv := NewServer()
	srv.Publish(snap)

	for _, mode := range []byte{BinModeOneHop, BinModeRoute} {
		good := AppendBatchRequest(nil, mode, binPairs(n))
		f.Add(good)
		f.Add(good[:len(good)-3])                           // truncated pair
		f.Add(good[:5])                                     // header only, count says 6
		f.Add(append(append([]byte(nil), good...), 9))      // trailing byte
		f.Add(AppendBatchRequest(nil, mode, nil))           // empty batch
		f.Add(AppendBatchRequest(nil, mode+2, binPairs(n))) // unknown mode
		for _, count := range []uint32{5, 7, maxBatchPairs + 1, math.MaxUint32} {
			bad := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(bad[1:5], count)
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	// A route batch of misses for pass 2 to spread: one cold source
	// asked eight times (its searches pass the fill threshold, so it is
	// filled part-way) beside three cold sources asked once.
	spread := []uint32{12, 40, 13, 41, 15, 44}
	for d := uint32(0); d < 8; d++ {
		spread = append(spread, 11, 20+d)
	}
	f.Add(AppendBatchRequest(nil, BinModeRoute, spread))

	f.Fuzz(func(t *testing.T, req []byte) {
		resp, err := srv.AnswerBinary(req, nil)
		if err != nil {
			if len(resp) != 0 {
				t.Fatalf("rejected request (%v) appended %d bytes", err, len(resp))
			}
			return
		}
		mode, jsonMode := req[0], "onehop"
		if mode == BinModeRoute {
			jsonMode = "route"
		}
		count := int(binary.LittleEndian.Uint32(req[1:5]))
		epoch, results, err := DecodeBatchResponse(resp, mode, nil)
		if err != nil {
			t.Fatalf("accepted request's response does not parse: %v", err)
		}
		if epoch != snap.Epoch() || len(results) != count {
			t.Fatalf("epoch %d with %d results, want epoch %d with %d", epoch, len(results), snap.Epoch(), count)
		}
		for i, got := range results {
			src := int(binary.LittleEndian.Uint32(req[5+8*i:]))
			dst := int(binary.LittleEndian.Uint32(req[9+8*i:]))
			want := srv.answerPair(snap, jsonMode, src, dst)
			status := BinOK
			switch {
			case want.Error != "":
				status = BinInvalidPair
			case !want.Ok:
				status = BinUnreachable
			}
			if got.Status != status || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("mode %d pair %d (%d,%d): status %d cost %v, JSON path says status %d cost %v",
					mode, i, src, dst, got.Status, got.Cost, status, want.Cost)
			}
			if mode == BinModeOneHop {
				via := -1
				if want.Via != nil {
					via = *want.Via
				}
				if int(got.Via) != via {
					t.Fatalf("pair %d (%d,%d): via %d, JSON path says %d", i, src, dst, got.Via, via)
				}
				continue
			}
			if len(got.Path) != len(want.Path) {
				t.Fatalf("pair %d (%d,%d): path %v, JSON path says %v", i, src, dst, got.Path, want.Path)
			}
			for p, v := range got.Path {
				if int(v) != want.Path[p] {
					t.Fatalf("pair %d (%d,%d): path %v, JSON path says %v", i, src, dst, got.Path, want.Path)
				}
			}
		}
	})
}
