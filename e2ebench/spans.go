package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's exported function. Spans of one
// op share Op; a root has Parent -1. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced paths share the traced code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// sum totals the duration of every span named name whose op passes keep
// (nil keeps all), and counts them.
func (t *tracer) sum(name string, keep func(op int) bool) (time.Duration, int) {
	var total time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// selfTime totals, over the spans named name whose op passes keep, each
// span's duration minus its children's. For a root span that is the
// residual no stage span accounts for.
func (t *tracer) selfTime(name string, keep func(op int) bool) time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var total time.Duration
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			total += s.dur() - child[s.ID]
		}
	}
	return total
}

// write stores the spans as JSON lines and returns the file's path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanCost measures what recording one span costs, for the tracing
// overhead line every traced run prints.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", i, -1))
	}
	return time.Since(start) / n
}

// layerRow is one line of the per-layer table: a stage's milliseconds
// per op over each op class.
type layerRow struct {
	name string
	ms   []float64
}

// printTable prints the per-layer table, one column per op class.
func printTable(classes []string, counts []int, rows []layerRow) {
	fmt.Printf("%-24s", "per-layer ms/op")
	for i, c := range classes {
		fmt.Printf(" %18s", fmt.Sprintf("%s (%d)", c, counts[i]))
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-24s", r.name)
		for _, v := range r.ms {
			fmt.Printf(" %18.4f", v)
		}
		fmt.Println()
	}
}
