package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := Span{Name: "client", Start: 100, End: 200}
	cases := []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []Span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested child inside another", []Span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"child sticking out is clipped", []Span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"child outside parent ignored", []Span{{Start: 0, End: 90}, {Start: 250, End: 260}}, 100},
		{"touching children", []Span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
		{"unsorted input", []Span{{Start: 160, End: 170}, {Start: 105, End: 115}, {Start: 110, End: 125}}, 70},
		{"inverted child ignored", []Span{{Start: 150, End: 140}}, 100},
	}
	for _, c := range cases {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
	if d := (Span{Start: 10, End: 5}).Dur(); d != 0 {
		t.Errorf("inverted span duration %d", d)
	}
}
