package main

import (
	"slices"
	"testing"

	"repro/internal/relation"
)

// TestMutationsAlwaysEffective applies every client's batches in an arbitrary
// interleaving and checks that each insert adds only absent pairs and each
// delete removes only present ones, so every batch changes exactly
// BatchPairs tuples however the clients interleave.
func TestMutationsAlwaysEffective(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.workload("write_mix")
	if err != nil {
		t.Fatal(err)
	}
	rels := buildRelations(w.RelationPairs)
	seqs := generateOps(w, rels, 7, 1)
	state := map[string]map[relation.Pair]bool{}
	for _, name := range w.Mutated {
		state[name] = map[relation.Pair]bool{}
		for _, p := range rels[name] {
			state[name][p] = true
		}
	}
	start := map[string]int{}
	for name, set := range state {
		start[name] = len(set)
	}
	next := make([]int, len(seqs))
	for step := 0; ; step++ {
		c := step % len(seqs)
		if step%7 == 3 {
			c = len(seqs) - 1 - c
		}
		if next[c] >= len(seqs[c]) {
			break
		}
		o := seqs[c][next[c]]
		next[c]++
		if o.kind != opMutate {
			continue
		}
		if len(o.pairs) != w.BatchPairs {
			t.Fatalf("batch of %d pairs, want %d", len(o.pairs), w.BatchPairs)
		}
		for _, p := range o.pairs {
			if state[o.rel][p] != o.del {
				t.Fatalf("%s %v on %s: present=%v", o.path, p, o.rel, state[o.rel][p])
			}
			state[o.rel][p] = !o.del
			if o.del {
				delete(state[o.rel], p)
			}
		}
		if d := len(state[o.rel]) - start[o.rel]; d > w.BatchPairs*len(seqs) || d < -w.BatchPairs*len(seqs) {
			t.Fatalf("%s drifted %d tuples from its starting size", o.rel, d)
		}
	}
}

func TestOpsDependOnlyOnSeed(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.workload("write_mix")
	if err != nil {
		t.Fatal(err)
	}
	rels := buildRelations(w.RelationPairs)
	a, b, c := generateOps(w, rels, 3, 1), generateOps(w, rels, 3, 1), generateOps(w, rels, 4, 1)
	same := func(x, y [][]op) bool {
		return slices.EqualFunc(x, y, func(p, q []op) bool {
			return slices.EqualFunc(p, q, func(o1, o2 op) bool { return o1.path == o2.path && string(o1.body) == string(o2.body) })
		})
	}
	if !same(a, b) {
		t.Error("the same seed gave different op sequences")
	}
	if same(a, c) {
		t.Error("different seeds gave the same op sequences")
	}
}
