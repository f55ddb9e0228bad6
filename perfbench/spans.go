package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Parent is the index of the enclosing span (-1 for a root), Cell the
// canonical index of the cell it ran in (-1 outside cells) and Pass the
// traced pass (-1 for the traced warm-up, -2 for runs after the passes).
type span struct {
	name, parent, cell, pass int32
	start, end               int64 // ns since the tracer's epoch
}

// tracer keeps every span of a traced run in memory. Cells run one at a
// time, so spans nest strictly and one open-span cursor suffices. A nil
// tracer records nothing.
type tracer struct {
	epoch time.Time
	names []string
	index map[string]int32
	spans []span
	open  int32
	cell  int32
	pass  int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: map[string]int32{}, open: -1, cell: -1, pass: -1}
}

// name interns a span name.
func (t *tracer) name(s string) int32 {
	if t == nil {
		return -1
	}
	id, ok := t.index[s]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, s)
		t.index[s] = id
	}
	return id
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.open, cell: t.cell, pass: t.pass,
		start: int64(time.Since(t.epoch))})
	t.open = id
	return id
}

// endTo closes span id and every span still open inside it (a fault
// unwinds through spans without closing them).
func (t *tracer) endTo(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	for t.open >= id {
		s := &t.spans[t.open]
		s.end = now
		t.open = s.parent
	}
}

// selfTimes returns each span's own time: its duration minus the
// durations of its direct children. spans is the tail of a trace starting
// at absolute index from; parents before from are outside the slice.
func selfTimes(spans []span, from int) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if p := int(s.parent); p >= from {
			self[p-from] -= d
		}
	}
	return self
}

// passSpans folds the spans of one pass (absolute indices from..end) into
// m: for every layer its self time (<name>.ms) and call count (<name>.n).
// bench.cell.* spans report inclusive time, their self time going to
// bench.cell_self.ms. It returns the total time of the root spans and the
// self time of the kvm layer.
func (t *tracer) passSpans(from int, m passMetrics) (rootNS, kvmNS int64) {
	spans := t.spans[from:]
	self := selfTimes(spans, from)
	selfBy := make([]int64, len(t.names))
	incBy := make([]int64, len(t.names))
	count := make([]int, len(t.names))
	for i, s := range spans {
		d := s.end - s.start
		if s.parent < 0 {
			rootNS += d
		}
		selfBy[s.name] += self[i]
		incBy[s.name] += d
		count[s.name]++
	}
	for id, name := range t.names {
		if count[id] == 0 {
			continue
		}
		m.add(name+".n", float64(count[id]))
		switch {
		case strings.HasPrefix(name, "bench.cell."):
			m.add(name+".ms", durMS(time.Duration(incBy[id])))
			m.add("bench.cell_self.ms", durMS(time.Duration(selfBy[id])))
		default:
			m.add(name+".ms", durMS(time.Duration(selfBy[id])))
		}
		if strings.HasPrefix(name, "kvm.") {
			kvmNS += selfBy[id]
		}
	}
	return rootNS, kvmNS
}

// write dumps every span as tab-separated text: id, parent, pass, cell,
// name, start and end in ns since the run's first span.
func (t *tracer) write(path string, cells []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tpass\tcell\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		cell := "-"
		if s.cell >= 0 {
			cell = cells[s.cell]
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", i, s.parent, s.pass, cell, t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
