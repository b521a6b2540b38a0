package main

import (
	"slices"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span (of the same request) that caused
// this one, empty for the request's root.
type Span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's length (0 for an inverted span).
func (s Span) Dur() int64 { return max(0, s.End-s.Start) }

// covered returns how much of [lo, hi) the union of the spans covers:
// children that overlap each other are counted once, and the parts of
// a child outside the window are ignored.
func covered(lo, hi int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int {
		switch {
		case x.a < y.a:
			return -1
		case x.a > y.a:
			return 1
		}
		return 0
	})
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// SelfTime is a layer's own time: its span's duration minus the part of
// that interval its child spans cover.
func SelfTime(parent Span, children []Span) int64 {
	return parent.Dur() - covered(parent.Start, parent.End, children)
}
