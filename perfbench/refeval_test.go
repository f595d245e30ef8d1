package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func TestRefEvalHandComputed(t *testing.T) {
	rels := map[string][]relation.Pair{
		"R": {{X: 1, Y: 2}, {X: 2, Y: 3}},
		"S": {{X: 2, Y: 5}, {X: 3, Y: 5}, {X: 3, Y: 6}},
	}
	for _, tc := range []struct {
		q    string
		want [][]int64
	}{
		{"Q(x, z) :- R(x, y), S(y, z)", [][]int64{{1, 5}, {2, 5}, {2, 6}}},
		{"Q(x, COUNT(z)) :- R(x, y), S(y, z)", [][]int64{{1, 1}, {2, 2}}},
		{"Q(x) :- R(x, y), S(y, z)", [][]int64{{1}, {2}}},
	} {
		got, err := evalRef(tc.q, rels)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := summarize(len(tc.want[0]), got), summarize(len(tc.want[0]), tc.want); a != b {
			t.Errorf("%s: got %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestRefEvalAgreesWithEngine checks the reference evaluator against the
// engine on a tiny catalog, over every query the workloads send.
func TestRefEvalAgreesWithEngine(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	rels := buildRelations(150)
	eng := core.NewEngine(core.WithOptimizerConstants(s.Constants))
	for _, name := range relationNames {
		if _, err := eng.Register(name, rels[name]); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		texts := append([]string(nil), w.Queries...)
		for _, v := range w.Views {
			texts = append(texts, v.Query)
		}
		for _, q := range texts {
			if seen[q] {
				continue
			}
			seen[q] = true
			ref, err := evalRef(q, rels)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, want := summarize(len(res.Columns), res.Tuples), summarize(len(res.Columns), ref)
			if got != want || got.rows == 0 {
				t.Errorf("%s: engine %+v, reference %+v", q, got, want)
			}
		}
	}
}

func TestDigestTuples(t *testing.T) {
	a, err := digestTuples([]byte(`[[1,2],[3,-4]]`), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := digestTuples([]byte(" [ [3, -4] , [1,2] ] "), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != summarize(2, [][]int64{{1, 2}, {3, -4}}) {
		t.Errorf("digests differ: %+v %+v", a, b)
	}
	if _, err := digestTuples([]byte(`[[1,2],[3]]`), 2); err == nil {
		t.Error("a tuple of the wrong arity was accepted")
	}
	if e, err := digestTuples([]byte(`[]`), 3); err != nil || e.rows != 0 {
		t.Errorf("empty result: %+v, %v", e, err)
	}
}
