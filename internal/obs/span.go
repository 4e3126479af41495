package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// SpanRecorder collects the spans of one batch run into a tree. Like *Trace,
// a nil recorder is a valid zero-cost no-op: StartSpan on it returns a nil
// *Span, and every Span method no-ops on a nil receiver, so call sites thread
// spans unconditionally and disabled tracing costs a pointer check.
//
// Spans are cheap but not free — the engine starts one per phase,
// statement, and spool, never per row or per morsel.
type SpanRecorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []*Span
}

// NewSpanRecorder returns an empty recorder; span timestamps are relative to
// this call.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{base: time.Now()}
}

// Enabled reports whether spans are being recorded.
func (r *SpanRecorder) Enabled() bool { return r != nil }

// Span is one timed operation. Spans form a tree via Child; attributes carry
// the numeric and string evidence (row counts, cache outcomes, wait times)
// tools assert on. All methods are safe on a nil receiver and for concurrent
// use — parallel morsel workers start children of one parent concurrently.
type Span struct {
	rec    *SpanRecorder
	id     int
	parent int // -1 for roots
	name   string
	start  time.Duration // relative to rec.base
	end    time.Duration // 0 while running (spans never end in the first instant recorded)
	ended  bool
	// discarded spans are dropped from the exported tree (their children are
	// re-parented). Used by speculative spans — started to time an operation
	// that may turn out not worth recording, e.g. an uncontended spool wait.
	discarded bool
	attrs     map[string]any
}

// StartSpan begins a root-level span. Returns nil on a nil recorder.
func (r *SpanRecorder) StartSpan(name string) *Span { return r.startSpan(name, -1) }

func (r *SpanRecorder) startSpan(name string, parent int) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Span{rec: r, id: len(r.spans), parent: parent, name: name, start: time.Since(r.base)}
	r.spans = append(r.spans, s)
	return s
}

// Child begins a span nested under s. Returns nil on a nil receiver, so
// disabled tracing propagates through arbitrarily deep call chains.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.startSpan(name, s.id)
}

// SetAttr attaches one key-value attribute. Values should be strings, bools,
// or numbers (anything else renders via fmt). No-op on a nil receiver.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
}

// End finishes the span. Idempotent: only the first End sets the end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.end = time.Since(s.rec.base)
	}
}

// Dur returns the span's duration: end−start once ended, elapsed-so-far
// while running. Zero on a nil receiver.
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.ended {
		return s.end - s.start
	}
	return time.Since(s.rec.base) - s.start
}

// Discard drops the span from the exported tree; any children are
// re-parented to the span's nearest retained ancestor. Use for speculative
// spans whose measurement turned out uninteresting (e.g. a spool wait that
// never blocked). No-op on a nil receiver.
func (s *Span) Discard() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.end = time.Since(s.rec.base)
	}
	s.discarded = true
}

// Finish ends every still-running span (marking it with an unfinished=true
// attribute) so a batch that errored or was cancelled mid-flight still
// exports a complete, well-formed tree. Safe on a nil recorder.
func (r *SpanRecorder) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Since(r.base)
	for _, s := range r.spans {
		if !s.ended {
			s.ended = true
			s.end = now
			if s.attrs == nil {
				s.attrs = make(map[string]any, 1)
			}
			s.attrs["unfinished"] = true
		}
	}
}

// Len returns the number of spans started so far.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Unfinished returns the number of spans not yet ended (0 after Finish).
func (r *SpanRecorder) Unfinished() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if !s.ended {
			n++
		}
	}
	return n
}

// SpanNode is one span in the exported tree: plain data, safe to retain and
// marshal after the batch completes. Times are microseconds relative to the
// recorder's creation.
type SpanNode struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanNode    `json:"children,omitempty"`
}

// Find returns the first node named name in a depth-first walk of the trees,
// or nil. A test and debugging convenience.
func Find(roots []*SpanNode, name string) *SpanNode {
	for _, n := range roots {
		if n.Name == name {
			return n
		}
		if m := Find(n.Children, name); m != nil {
			return m
		}
	}
	return nil
}

// Walk calls f for every node in a depth-first walk of the trees.
func Walk(roots []*SpanNode, f func(*SpanNode)) {
	for _, n := range roots {
		f(n)
		Walk(n.Children, f)
	}
}

// Tree snapshots the recorded spans as a forest of SpanNodes in start order.
// Running spans appear with their current elapsed time. Nil-safe (returns
// nil).
func (r *SpanRecorder) Tree() []*SpanNode {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Since(r.base)
	nodes := make([]*SpanNode, len(r.spans))
	var roots []*SpanNode
	for i, s := range r.spans {
		if s.discarded {
			continue
		}
		end := s.end
		if !s.ended {
			end = now
		}
		n := &SpanNode{
			Name:    s.name,
			StartUS: s.start.Microseconds(),
			DurUS:   (end - s.start).Microseconds(),
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]any, len(s.attrs))
			for k, v := range s.attrs {
				n.Attrs[k] = v
			}
		}
		nodes[i] = n
		// Attach to the nearest retained ancestor so children of a discarded
		// span are not lost.
		parent := s.parent
		for parent >= 0 && r.spans[parent].discarded {
			parent = r.spans[parent].parent
		}
		if parent >= 0 {
			p := nodes[parent]
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// JSON renders the span tree as indented JSON.
func (r *SpanRecorder) JSON() ([]byte, error) {
	tree := r.Tree()
	if tree == nil {
		tree = []*SpanNode{}
	}
	return json.MarshalIndent(tree, "", "  ")
}

// chromeEvent is one Chrome trace-event ("X" complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders the span forest in Chrome trace-event format, loadable
// by chrome://tracing and Perfetto. Concurrent spans (parallel spool
// materializations, concurrent statements) are laid out on separate tracks by
// greedy interval partitioning, so overlapping work renders side by side
// instead of nesting incorrectly.
func ChromeTrace(roots []*SpanNode) ([]byte, error) {
	type flat struct {
		n     *SpanNode
		depth int
	}
	var all []flat
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		all = append(all, flat{n, depth})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, rt := range roots {
		walk(rt, 0)
	}
	// Assign tracks greedily per depth level: spans at the same depth that
	// overlap in time land on different tids; nested children stay above
	// their parents by sharing the parent's track when they fit. Chrome
	// nests same-tid events by time containment, so the simple rule — tid =
	// first track at which the span does not overlap a previously placed
	// *sibling-level* span — renders correctly for our phase/statement/spool
	// shapes. Stable order: by start time, then by tree order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].n.StartUS < all[j].n.StartUS })
	type track struct{ lastEnd map[int]int64 } // per depth, last end placed
	var tracks []*track
	tidOf := make(map[*SpanNode]int, len(all))
	for _, f := range all {
		startUS, endUS := f.n.StartUS, f.n.StartUS+f.n.DurUS
		placed := false
		for tid, tr := range tracks {
			if tr.lastEnd[f.depth] <= startUS {
				tr.lastEnd[f.depth] = endUS
				tidOf[f.n] = tid
				placed = true
				break
			}
		}
		if !placed {
			tr := &track{lastEnd: map[int]int64{f.depth: endUS}}
			tracks = append(tracks, tr)
			tidOf[f.n] = len(tracks) - 1
		}
	}
	events := make([]chromeEvent, 0, len(all))
	for _, f := range all {
		events = append(events, chromeEvent{
			Name: f.n.Name,
			Ph:   "X",
			TS:   f.n.StartUS,
			Dur:  f.n.DurUS,
			PID:  1,
			TID:  tidOf[f.n],
			Args: f.n.Attrs,
		})
	}
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	return json.MarshalIndent(out, "", " ")
}

// ChromeTrace renders this recorder's spans; see the package-level function.
func (r *SpanRecorder) ChromeTrace() ([]byte, error) { return ChromeTrace(r.Tree()) }

// String renders one node as a single line (debugging convenience).
func (n *SpanNode) String() string {
	return fmt.Sprintf("%s [%dus +%dus] %v", n.Name, n.StartUS, n.DurUS, n.Attrs)
}
