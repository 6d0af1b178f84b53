package main

import (
	"reflect"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/corpus"
)

// walkFigure1 cannot join internal/checkpoint's table of walks from a
// main package; its round trip is pinned here on the shapes that occur.
func TestWalkFigure1(t *testing.T) {
	for _, want := range []figure1Result{
		{},
		{Table: "Figure 1\n"},
		{Table: "t", Counts: []corpus.Count{{Label: "PROFINET", Occurrences: 3}, {Label: "", Occurrences: -1}}},
	} {
		var got figure1Result
		if err := checkpoint.Decode(walkFigure1, checkpoint.Encode(walkFigure1, &want), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("round trip: want %+v, got %+v", want, got)
		}
	}
}
