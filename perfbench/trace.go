package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// noVirt marks a span endpoint taken outside the simulated clock (the
// real-UDP path, or harness work between kernel runs).
const noVirt time.Duration = -1

// span is one timed call into a layer, recorded by the benchmark around
// the public API it calls. Spans of one round share the round id.
type span struct {
	name               string // "<layer>.<call>"
	id, parent         int64  // parent 0: a root span
	round              int64
	hostStart, hostEnd time.Duration // since the tracer's epoch
	virtStart, virtEnd time.Duration // simulated clock, or noVirt
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex // the UDP clients record from two goroutines
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<14)
	}
	return t
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, round int64, virt time.Duration) int64 {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, round: round,
		hostStart: now, hostEnd: now, virtStart: virt, virtEnd: virt})
	return id
}

// end closes span id.
func (t *tracer) end(id int64, virt time.Duration) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.hostEnd, s.virtEnd = now, virt
}

// durations returns the host durations of every span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.hostEnd-s.hostStart)
		}
	}
	return out
}

// virtDurations returns the simulated durations of every span with this
// name that has a simulated clock.
func (t *tracer) virtDurations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.virtStart != noVirt {
			out = append(out, s.virtEnd-s.virtStart)
		}
	}
	return out
}

// selfTimes returns each layer's host self time: the duration of its
// spans minus the part of each span's interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int64][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		var iv [][2]time.Duration
		for _, c := range children[s.id] {
			cs := t.spans[c]
			lo, hi := max(cs.hostStart, s.hostStart), min(cs.hostEnd, s.hostEnd)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[s.layer()] += s.hostEnd - s.hostStart - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, viewable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, with the
// per-layer self times and the environment envelope as metadata.
func (t *tracer) writeChrome(path string, env map[string]any, self map[string]time.Duration) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		l := s.layer()
		if _, ok := tids[l]; !ok {
			tids[l] = len(tids) + 1
		}
		args := map[string]any{"id": s.id, "parent": s.parent, "round": s.round}
		if s.virtStart != noVirt {
			args["virt_start_us"] = float64(s.virtStart) / 1e3
			args["virt_end_us"] = float64(s.virtEnd) / 1e3
		}
		events = append(events, chromeEvent{Name: s.name, Cat: l, Ph: "X",
			Ts: float64(s.hostStart) / 1e3, Dur: float64(s.hostEnd-s.hostStart) / 1e3,
			Pid: 1, Tid: tids[l], Args: args})
	}
	selfMs := map[string]float64{}
	for l, d := range self {
		selfMs[l] = float64(d) / 1e6
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"envelope": env, "self_ms": selfMs},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return f.Close()
}
