package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// span is one timed interval of the traced run. Spans of one operation share
// Op; Parent is the ID of the span that caused this one (-1 for an
// operation's root). Times are microseconds since the traced section began.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Op      int            `json:"op"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	EndUS   int64          `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func (s span) durUS() int64 { return s.EndUS - s.StartUS }

// spanLog keeps every span of a traced run in memory until the run ends.
type spanLog struct {
	spans []span
}

// add appends one span and returns its ID.
func (l *spanLog) add(parent, op int, name string, startUS, endUS int64, attrs map[string]any) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: startUS, EndUS: endUS, Attrs: attrs})
	return id
}

// adopt copies a span forest recorded by the engine's own obs.SpanRecorder
// under parent, shifting its recorder-relative times by offsetUS.
func (l *spanLog) adopt(parent, op int, offsetUS int64, nodes []*obs.SpanNode) {
	for _, n := range nodes {
		id := l.add(parent, op, n.Name, offsetUS+n.StartUS, offsetUS+n.StartUS+n.DurUS, n.Attrs)
		l.adopt(id, op, offsetUS, n.Children)
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover. Children that overlap each other
// (parallel spools, concurrent statements) are merged first, so a stretch
// covered twice is subtracted once and self time is never negative.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		ivs := make([][2]int64, 0, len(kids[s.ID]))
		for _, k := range kids[s.ID] {
			a, b := spans[k].StartUS, spans[k].EndUS
			if a < s.StartUS {
				a = s.StartUS
			}
			if b > s.EndUS {
				b = s.EndUS
			}
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered, curA, curB int64
		open := false
		for _, iv := range ivs {
			if !open {
				curA, curB, open = iv[0], iv[1], true
				continue
			}
			if iv[0] <= curB {
				if iv[1] > curB {
					curB = iv[1]
				}
				continue
			}
			covered += curB - curA
			curA, curB = iv[0], iv[1]
		}
		if open {
			covered += curB - curA
		}
		self[s.ID] = s.durUS() - covered
	}
	return self
}

// layerOf maps a span name to the package (layer) whose work it times. The
// names on the left of the engine-emitted group are the ones core and exec
// already emit; the rest are opened by this benchmark around its own calls.
var layerOf = map[string]string{
	"parse": "parser",
	"bind":  "logical",
	"memo":  "memo",

	"optimize-base":         "opt",
	"candidates":            "core.candidates",
	"subset-reoptimization": "core.search",
	"greedy-round":          "core.search",
	"optimize":              "core.search", // self time: CSE preparation between the phases

	"execute":    "exec",
	"wave":       "exec",
	"spool":      "exec",
	"spool-wait": "exec",
	"statement":  "exec",

	"insert": "storage",

	"wait":    "server",
	"batch":   "server",
	"request": "server/http", // self time: what the client saw beyond the server's own interval
}

// layerBusy sums self time by layer, in milliseconds.
func layerBusy(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if layer, ok := layerOf[s.Name]; ok {
			out[layer] += float64(self[s.ID]) / 1000
		}
	}
	return out
}

// sumByName adds up whole durations (children included) per span name, in
// milliseconds.
func sumByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.durUS()) / 1000
	}
	return out
}

// traceFile is what trace.<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace."+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
