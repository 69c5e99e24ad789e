package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer, or one delivery
// observed by a member. Times are nanoseconds since the recorder started.
type span struct {
	id, parent uint64
	op         uint64 // operation id shared by every span of one operation
	name       string
	start, end int64
	attr       int64 // span-specific: member index for deliveries, else -1
}

// tracer keeps spans in memory while the benchmark runs and writes them
// out when it ends. A nil *tracer records nothing, which is the untraced
// mode: each call site costs one nil check.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id and start time; end closes it.
func (t *tracer) begin() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

func (t *tracer) end(id, parent, op uint64, name string, start int64, attr int64) {
	if t == nil {
		return
	}
	s := span{id: id, parent: parent, op: op, name: name, start: start, end: t.now(), attr: attr}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs fn inside a span named name and returns fn's error.
func (t *tracer) call(name string, parent, op uint64, fn func() error) error {
	id, start := t.begin()
	err := fn()
	t.end(id, parent, op, name, start, -1)
	return err
}

// instant records a zero-length event span (a delivery) under parent.
func (t *tracer) instant(name string, parent, op uint64, at time.Time, attr int64) {
	if t == nil {
		return
	}
	ns := int64(at.Sub(t.t0))
	s := span{id: t.nextID.Add(1), parent: parent, op: op, name: name, start: ns, end: ns, attr: attr}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as tab-separated lines (id, parent, op, name,
// start_ns, end_ns, attr) into path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns\tattr")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start, s.end, s.attr)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is one row of the per-name table: how many spans, their
// total duration, and their self time (duration minus the part of it that
// child spans cover).
type spanSummary struct {
	name            string
	count           int
	total, selfTime time.Duration
}

func (t *tracer) summary() []spanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.parent != 0 && s.end > s.start {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	rows := map[string]*spanSummary{}
	for _, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &spanSummary{name: s.name}
			rows[s.name] = r
		}
		r.count++
		d := s.end - s.start
		r.total += time.Duration(d)
		r.selfTime += time.Duration(d - covered(children[s.id], s.start, s.end))
	}
	out := make([]spanSummary, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// covered returns how much of [start, end) the intervals cover.
func covered(iv [][2]int64, start, end int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		s, e := max(x[0], start), min(x[1], end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
