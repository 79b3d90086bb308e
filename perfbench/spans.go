package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans in memory and writes them out when the run ends. A
// nil *tracer times spans without recording them, so timed and traced runs
// execute the same code and differ only by the recording.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []spanRecord
}

// spanRecord is one timed call into a layer. Parent is the ID of the span
// the call was made under (0 for none); Run names the workload run.
type spanRecord struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun names the workload run that spans begun from now on belong to.
func (t *tracer) setRun(run string) {
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// span is an open span.
type span struct {
	t     *tracer
	id    int
	start time.Time
}

// begin opens a span called name under the span with ID parent.
func (t *tracer) begin(parent int, name string) span {
	s := span{t: t, start: time.Now()}
	if t == nil {
		return s
	}
	t.mu.Lock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, spanRecord{ID: s.id, Parent: parent, Run: t.run, Name: name, Start: s.start.Sub(t.t0).Seconds()})
	t.mu.Unlock()
	return s
}

// end closes the span and returns its duration in seconds.
func (s span) end() float64 {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans[s.id-1].End = now.Sub(s.t.t0).Seconds()
		s.t.mu.Unlock()
	}
	return now.Sub(s.start).Seconds()
}

// write saves the host block and every span as JSON.
func (t *tracer) write(path string, h host) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Host  host         `json:"host"`
		Spans []spanRecord `json:"spans"`
	}{h, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes writes the self time of each layer — the span name up to
// its first dot — largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	self := selfTimes(t.spans)
	t.mu.Unlock()
	layers := map[string]float64{}
	for name, s := range self {
		layer, _, _ := strings.Cut(name, ".")
		layers[layer] += s
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n) //lint:ignore maporder names is sorted immediately below
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintln(w, "self time by layer:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %10.4f s\n", n, layers[n])
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []spanRecord) map[string]float64 {
	kids := map[int][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p spanRecord, kids []spanRecord) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total float64
	reach := p.Start
	for _, k := range kids {
		lo, hi := math.Max(k.Start, reach), math.Min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}
