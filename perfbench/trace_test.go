package main

import (
	"math"
	"testing"
)

func TestSelfTimeArithmetic(t *testing.T) {
	tr := &tracer{}
	// One op: a root of 100 ns with children of 30 and 20 ns; the first
	// child has a child of 5 ns. A second op is a lone 7 ns span.
	tr.add("root", -1, 0, 0, 100)
	tr.add("a", 0, 0, 100, 30)
	tr.add("b", 0, 0, 130, 20)
	tr.add("a.x", 1, 0, 150, 5)
	tr.add("lone", -1, 1, 200, 7)
	want := []int64{50, 25, 20, 5, 7}
	got := selfNs(tr.spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", tr.spans[i].Name, got[i], want[i])
		}
	}
	ls := sumLayers(tr.spans, []opKind{opQuery, opMutate})
	for key, w := range map[string]float64{"query/root": 100e-6, "query/a": 30e-6, "mutate/lone": 7e-6} {
		if math.Abs(ls.dur[key]-w) > 1e-12 {
			t.Errorf("dur[%s] = %v, want %v", key, ls.dur[key], w)
		}
	}
	if s := ls.self["query/root"]; math.Abs(s-50e-6) > 1e-12 {
		t.Errorf("self[query/root] = %v, want 5e-05", s)
	}
}

func TestTimeRecordsTheCall(t *testing.T) {
	tr := newTracer()
	parent := tr.time("outer", -1, 3, func() {})
	child := tr.timeNamed(parent, 3, func() string { return "inner" })
	s := tr.spans[child]
	if s.Name != "inner" || s.Parent != parent || s.Op != 3 || s.End < s.Start {
		t.Errorf("bad span %+v", s)
	}
}
