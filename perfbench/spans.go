package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation share Op; Parent indexes the enclosing span
// (-1 for a top-level span).
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps every span in memory until the run ends. A nil *spanLog
// records nothing, which is how the untraced run stays free of it. It is
// used from the benchmark's main goroutine only.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its index for end; -1 when l is nil.
func (l *spanLog) begin(name string, op, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(l.epoch)})
	return len(l.spans) - 1
}

// end closes span i.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = time.Since(l.epoch)
}

// spanStat aggregates the spans of one name. Self time is a span's
// duration minus the part its child spans cover.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summary aggregates spans by name, in first-seen order.
func (l *spanLog) summary() []spanStat {
	if l == nil {
		return nil
	}
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []spanStat
	for i, s := range l.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanStat{Name: s.Name})
		}
		d := s.End - s.Start
		out[j].Count++
		out[j].Total += d
		out[j].Self += d - child[i]
	}
	return out
}

// durations returns the durations of every span called name, in order.
func (l *spanLog) durations(name string) []time.Duration {
	if l == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeSummary prints one line per span name: count, total and self time.
func (l *spanLog) writeSummary(w io.Writer) {
	st := l.summary()
	sort.SliceStable(st, func(i, j int) bool { return st[i].Total > st[j].Total })
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range st {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", s.Name, s.Count,
			float64(s.Total)/1e6, float64(s.Self)/1e6)
	}
}

// writeFile writes every span as one JSON array.
func (l *spanLog) writeFile(path string) error {
	if l == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
