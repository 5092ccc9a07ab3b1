package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// The layer ladder replays the same generated operations through
// successively deeper public entry points. A rung is one depth.
const (
	rungWire    = iota // client.HTTP over loopback TCP to the child daemon
	rungMem            // client.HTTP over an in-memory RoundTripper into server.Handler().ServeHTTP
	rungCore           // core.Platform.DeployContext / DeployAsync / DeployBatchContext / Watch
	rungCluster        // Cluster.DeployContext / Drain / FailNode / Utilization, Federation.DeployObserved
	rungLeaf           // the leaves, called one by one
)

// span is one timed call the benchmark made into a layer. Spans of one
// generated operation share Op across every rung; Parent is the span
// that was open when this one began (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Rung   int    `json:"rung"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every span is
// recorded from the benchmark's own goroutine around a call it makes —
// no file outside benchmark/ carries a hook — so one stack of open
// spans gives parents. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under whichever span is open now. op < 0 inherits
// the parent's operation.
func (t *tracer) begin(rung int, name string, op int) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if op < 0 {
			op = t.spans[parent-1].Op
		}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rung: rung, Name: name, Op: op,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// time runs fn inside a span.
func (t *tracer) time(rung int, name string, op int, fn func()) {
	id := t.begin(rung, name, op)
	fn()
	t.end(id)
}

// durations returns, in µs, every closed span of the rung and name that
// keep accepts (nil keeps all).
func (t *tracer) durations(rung int, name string, keep func(*span) bool) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Rung == rung && s.Name == name && s.End > 0 && (keep == nil || keep(s)) {
			out = append(out, us(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
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
