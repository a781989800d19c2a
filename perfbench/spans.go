package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by a benchmark-side wrapper around a
// call into a layer. Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps the spans and counters of one traced pass in memory. A nil
// *tracer is the untraced configuration: every method is a no-op, so the
// workloads call the program exactly as they would without wrappers.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID uint64
	counts map[string]float64
	// flushOf maps an upload key to the device.flush span that carried
	// it, serverOf a flush span to the latest server span it caused, and
	// commits the open hive.commit spans to the store shards they touch:
	// together they attribute a group commit and its store appends to the
	// requests that waited on it (see tracedSink and tracedStore).
	flushOf  map[string]uint64
	serverOf map[uint64]uint64
	commits  map[uint64][]int
	// publish is the open publication span; lppm.Protect calls (which
	// carry no context) are parented on it. Publications run one at a
	// time in every workload.
	publish uint64
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		counts:   make(map[string]float64),
		flushOf:  make(map[string]uint64),
		serverOf: make(map[uint64]uint64),
		commits:  make(map[uint64][]int),
	}
}

// spanRef is the parent identity carried in a context and, across the
// loopback HTTP hop, in the parentHeader request header.
type spanRef struct {
	id uint64
	op int
}

type ctxKey struct{}

// active is a span being timed; nil when tracing is off.
type active struct {
	tr *tracer
	sp span
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// child starts a span under an explicit parent.
func (tr *tracer) child(parent spanRef, name string) *active {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.nextID++
	id := tr.nextID
	tr.mu.Unlock()
	return &active{tr: tr, sp: span{ID: id, Parent: parent.id, Op: parent.op, Name: name, Start: tr.now()}}
}

// begin starts a span under the span carried by ctx and returns a context
// carrying the new one.
func (tr *tracer) begin(ctx context.Context, name string) (context.Context, *active) {
	if tr == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(spanRef)
	a := tr.child(parent, name)
	return context.WithValue(ctx, ctxKey{}, spanRef{id: a.sp.ID, op: a.sp.Op}), a
}

// withOp returns ctx tagged with op id n; spans begun under it inherit n.
func withOp(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, ctxKey{}, spanRef{op: n})
}

// end records the span.
func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.End = a.tr.now()
	a.tr.record(a.sp)
}

func (tr *tracer) record(sp span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// add bumps a named counter.
func (tr *tracer) add(name string, v float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.counts[name] += v
	tr.mu.Unlock()
}

func (tr *tracer) count(name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.counts[name]
}

// layerTotal is the aggregate of every span of one name.
type layerTotal struct {
	n     int
	total int64 // summed duration, ns
	self  int64 // summed self time, ns
}

// aggregate sums duration and self time per span name. A span's self time
// is its duration minus the part of its interval its children cover.
func aggregate(spans []span) map[string]layerTotal {
	children := make(map[uint64][]interval)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	out := make(map[string]layerTotal)
	for _, sp := range spans {
		t := out[sp.Name]
		t.n++
		t.total += sp.End - sp.Start
		t.self += selfTime(sp, children[sp.ID])
		out[sp.Name] = t
	}
	return out
}

type interval struct{ lo, hi int64 }

// selfTime is the span's duration minus the union of its children's
// intervals clipped to the span, so overlapping children count once.
func selfTime(sp span, kids []interval) int64 {
	return (sp.End - sp.Start) - unionWithin(kids, sp.Start, sp.End)
}

// unionWithin is the total length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered, curLo, curHi int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curLo, curHi = iv.lo, iv.hi
		case iv.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		case iv.hi > curHi:
			curHi = iv.hi
		}
	}
	if len(clipped) > 0 {
		covered += curHi - curLo
	}
	return covered
}

// writeSpans writes the spans as JSON lines, in start order.
func writeSpans(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range sorted {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
