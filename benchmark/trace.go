package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one interval at a layer boundary crossed from the harness.
// Start and End are nanoseconds since the tracer was created; Parent is
// the span that caused it (-1 for a root) and Req groups the spans of
// one request or engine call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the workload ends. It is used
// from one goroutine — the harness's own, which is also the goroutine
// the engine's serial hooks run on — so it takes no lock. A nil tracer
// is the untraced run: every method is a no-op, and end-to-end metrics
// are only ever taken with it nil.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now(), End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// add records a span whose duration was measured by the layer itself
// (the engine's OnPhase feed): it is placed so that it ends now.
func (t *tracer) add(name string, parent int32, req int64, ns int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: req, Name: name, Start: end - ns, End: end})
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// spanTotals is one span name's aggregate: how often it ran, its total
// duration, and its self time — duration minus the part of the
// interval its child spans cover.
type spanTotals struct {
	Name   string
	Count  int
	Total  time.Duration
	Self   time.Duration
	Parent string
}

// totals folds the spans by name. Child cover is the union of the
// children's intervals clipped to the parent, so overlapping or
// back-dated children (add) are never counted twice.
func (t *tracer) totals() []spanTotals {
	if t == nil {
		return nil
	}
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := make(map[string]*spanTotals)
	var order []string
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		agg := byName[s.Name]
		if agg == nil {
			agg = &spanTotals{Name: s.Name}
			if s.Parent >= 0 {
				agg.Parent = t.spans[s.Parent].Name
			}
			byName[s.Name] = agg
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		agg.Count++
		agg.Total += time.Duration(dur)
		agg.Self += time.Duration(dur - t.cover(s, children[s.ID]))
	}
	out := make([]spanTotals, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

func (t *tracer) cover(parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, id := range kids {
		k := t.spans[id]
		if k.End < 0 {
			continue
		}
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, edge int64
	for i, v := range ivs {
		if i == 0 || v.lo > edge {
			covered += v.hi - v.lo
			edge = v.hi
		} else if v.hi > edge {
			covered += v.hi - edge
			edge = v.hi
		}
	}
	return covered
}

// write dumps the spans as JSONL, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
