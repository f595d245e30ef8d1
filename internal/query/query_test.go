package query

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

func rel(t *testing.T, name string, pairs ...[2]int32) *relation.Relation {
	t.Helper()
	ps := make([]relation.Pair, len(pairs))
	for i, p := range pairs {
		ps[i] = relation.Pair{X: p[0], Y: p[1]}
	}
	return relation.FromPairs(name, ps)
}

func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func evalText(t *testing.T, src string, rels map[string]*relation.Relation) *Result {
	t.Helper()
	p, err := Prepare(src, MapResolver(rels))
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	res, err := p.Execute(context.Background(), ExecOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Execute(%q): %v", src, err)
	}
	return res
}

func TestParseRoundTrip(t *testing.T) {
	for _, src := range []string{
		"Q(x, z) :- R(x, y), S(y, z)",
		"Q(x, COUNT(z)) :- R(x, y), S(y, z) WITH strategy=mm, workers=4",
		"Q() :- R(1, 2)",
		"Path(a, d) :- R(a, b), R(b, c), R(c, d) WITH strategy=wcoj",
		"Q(x) :- R(x, -7)",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse(%q → %q): %v", src, q.String(), err)
		}
		if q.String() != q2.String() {
			t.Fatalf("round trip mismatch: %q vs %q", q.String(), q2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"Q(x)",
		"Q(x) :- ",
		"Q(x) :- R(x)",           // unary atom
		"Q(x) :- R(x, y, z)",     // ternary atom
		"Q(w) :- R(x, y)",        // unbound head var
		"Q(COUNT(w)) :- R(x, y)", // unbound count var
		"Q(COUNT(x), COUNT(y)) :- R(x, y)",
		"Q(x) :- R(x, y) WITH strategy=fast",
		"Q(x) :- R(x, y) WITH foo=1",
		"Q(x) :- R(x, y) extra",
		"Q(x) :- R(x, 99999999999)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// TestCyclicAccepted pins the PR-3 behavior change: cyclic queries used to
// be rejected at compile time ("cyclic query — ... GYO reduction fails");
// they now compile via hypertree decomposition and EXPLAIN shows the bag
// plan.
func TestCyclicAccepted(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 2}, [2]int32{2, 3}, [2]int32{3, 1}),
	}
	p, err := Prepare("Q(x) :- R(x, y), R(y, z), R(z, x)", MapResolver(rels))
	if err != nil {
		t.Fatalf("cyclic query must compile now, got %v", err)
	}
	plan := p.Explain(ExecOptions{})
	if !strings.Contains(plan.String(), "bag") || !strings.Contains(plan.String(), "ghd") {
		t.Fatalf("EXPLAIN of a cyclic query must show the GHD bag plan:\n%s", plan)
	}
	res, err := p.Execute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	sortTuples(res.Tuples)
	want := [][]int64{{1}, {2}, {3}}
	if !reflect.DeepEqual(res.Tuples, want) {
		t.Fatalf("triangle Q(x) = %v; want %v\nplan:\n%s", res.Tuples, want, res.Plan)
	}
}

func TestTwoPathQuery(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{1, 11}, [2]int32{2, 10}),
		"S": rel(t, "S", [2]int32{10, 5}, [2]int32{11, 5}, [2]int32{10, 6}),
	}
	res := evalText(t, "Q(x, z) :- R(x, y), S(y, z)", rels)
	sortTuples(res.Tuples)
	want := [][]int64{{1, 5}, {1, 6}, {2, 5}, {2, 6}}
	if len(res.Tuples) != len(want) {
		t.Fatalf("got %v want %v\nplan:\n%s", res.Tuples, want, res.Plan)
	}
	for i := range want {
		if res.Tuples[i][0] != want[i][0] || res.Tuples[i][1] != want[i][1] {
			t.Fatalf("got %v want %v", res.Tuples, want)
		}
	}
}

func TestPathWithBranchAndConst(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{2, 20}),
		"S": rel(t, "S", [2]int32{10, 5}, [2]int32{20, 6}),
		"T": rel(t, "T", [2]int32{5, 100}),
	}
	// T(z, w) is a non-head branch: it filters z to 5.
	res := evalText(t, "Q(x, z) :- R(x, y), S(y, z), T(z, w)", rels)
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 1 || res.Tuples[0][1] != 5 {
		t.Fatalf("got %v, want [[1 5]]\nplan:\n%s", res.Tuples, res.Plan)
	}
	// Constant selection.
	res = evalText(t, "Q(x) :- R(x, 20)", rels)
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 2 {
		t.Fatalf("got %v, want [[2]]", res.Tuples)
	}
}

func TestStarQuery(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 7}, [2]int32{2, 7}, [2]int32{3, 8}),
		"S": rel(t, "S", [2]int32{4, 7}, [2]int32{5, 8}),
		"T": rel(t, "T", [2]int32{6, 7}),
	}
	// Star: center y, three head leaves.
	res := evalText(t, "Q(a, b, c) :- R(a, y), S(b, y), T(c, y)", rels)
	sortTuples(res.Tuples)
	want := [][]int64{{1, 4, 6}, {2, 4, 6}}
	if len(res.Tuples) != 2 {
		t.Fatalf("got %v want %v\nplan:\n%s", res.Tuples, want, res.Plan)
	}
	for i := range want {
		for k := range want[i] {
			if res.Tuples[i][k] != want[i][k] {
				t.Fatalf("got %v want %v", res.Tuples, want)
			}
		}
	}
	if !strings.Contains(res.Plan.String(), "star") {
		t.Fatalf("expected star node in plan:\n%s", res.Plan)
	}
}

// TestCountPushdown checks that the (g, COUNT(v)) head runs the aggregate
// inside the final fold (the groupfold operator) instead of materializing
// the distinct pairs, on the shapes where the push-down applies, and that a
// non-pushable head still takes the generic path.
func TestCountPushdown(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{1, 11}, [2]int32{2, 10}),
		"S": rel(t, "S", [2]int32{10, 5}, [2]int32{11, 5}, [2]int32{10, 6}),
		"T": rel(t, "T", [2]int32{5, 7}, [2]int32{6, 7}, [2]int32{6, 8}),
	}
	cases := []struct {
		src  string
		want [][]int64
	}{
		// Two-path: the canonical weighted fold.
		{"Q(x, COUNT(z)) :- R(x, y), S(y, z)", [][]int64{{1, 2}, {2, 2}}},
		// COUNT column first.
		{"Q(COUNT(z), x) :- R(x, y), S(y, z)", [][]int64{{2, 1}, {2, 2}}},
		// Chain of three: the last fold groups.
		{"Q(x, COUNT(w)) :- R(x, y), S(y, z), T(z, w)", [][]int64{{1, 2}, {2, 2}}},
		// Single atom: grouped straight off the index degrees.
		{"Q(x, COUNT(y)) :- R(x, y)", [][]int64{{1, 2}, {2, 1}}},
	}
	for _, tc := range cases {
		p, err := Prepare(tc.src, MapResolver(rels))
		if err != nil {
			t.Fatalf("Prepare(%q): %v", tc.src, err)
		}
		res, err := p.Execute(context.Background(), ExecOptions{Workers: 1})
		if err != nil {
			t.Fatalf("Execute(%q): %v", tc.src, err)
		}
		sortTuples(res.Tuples)
		if !reflect.DeepEqual(res.Tuples, tc.want) {
			t.Fatalf("%q = %v; want %v\nplan:\n%s", tc.src, res.Tuples, tc.want, res.Plan)
		}
		if !strings.Contains(res.Plan.String(), "groupfold") {
			t.Fatalf("%q should push the count into the fold:\n%s", tc.src, res.Plan)
		}
		// The predicted plan shows the push-down too.
		if dry := p.Explain(ExecOptions{Workers: 1}); !strings.Contains(dry.String(), "groupfold") {
			t.Fatalf("EXPLAIN of %q should predict groupfold:\n%s", tc.src, dry)
		}
	}
	// Three head terms: grouping must stay in the generic aggregate.
	res := evalText(t, "Q(x, z, COUNT(w)) :- R(x, y), S(y, z), T(z, w)", rels)
	if strings.Contains(res.Plan.String(), "groupfold") {
		t.Fatalf("three-term head must not push down:\n%s", res.Plan)
	}
}

func TestCountAggregate(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{1, 11}, [2]int32{2, 10}),
		"S": rel(t, "S", [2]int32{10, 5}, [2]int32{11, 6}, [2]int32{10, 6}),
	}
	res := evalText(t, "Q(x, COUNT(z)) :- R(x, y), S(y, z)", rels)
	sortTuples(res.Tuples)
	// x=1 reaches z ∈ {5,6}; x=2 reaches z ∈ {5,6}.
	want := [][]int64{{1, 2}, {2, 2}}
	for i := range want {
		if res.Tuples[i][0] != want[i][0] || res.Tuples[i][1] != want[i][1] {
			t.Fatalf("got %v want %v", res.Tuples, want)
		}
	}
	// Global count.
	res = evalText(t, "Q(COUNT(z)) :- R(x, y), S(y, z)", rels)
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 2 {
		t.Fatalf("global count: got %v want [[2]]", res.Tuples)
	}
	// Unsatisfiable global count still yields a single zero row.
	res = evalText(t, "Q(COUNT(z)) :- R(x, y), S(y, z), R(9, 9)", rels)
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 0 {
		t.Fatalf("empty global count: got %v want [[0]]", res.Tuples)
	}
}

func TestBooleanAndCross(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 2}),
		"S": rel(t, "S", [2]int32{3, 4}),
	}
	res := evalText(t, "Q() :- R(1, 2)", rels)
	if len(res.Tuples) != 1 || len(res.Tuples[0]) != 0 {
		t.Fatalf("boolean true: got %v", res.Tuples)
	}
	res = evalText(t, "Q() :- R(2, 1)", rels)
	if len(res.Tuples) != 0 {
		t.Fatalf("boolean false: got %v", res.Tuples)
	}
	// Cross product across disconnected components.
	res = evalText(t, "Q(a, b) :- R(a, x), S(b, y)", rels)
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 1 || res.Tuples[0][1] != 3 {
		t.Fatalf("cross: got %v", res.Tuples)
	}
}

func TestSelfJoinAndParallelAtoms(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 1}, [2]int32{1, 2}, [2]int32{2, 3}),
		"S": rel(t, "S", [2]int32{1, 2}, [2]int32{9, 9}),
	}
	// Self-loop atom: unary constraint x = values with R(x,x).
	res := evalText(t, "Q(x) :- R(x, x)", rels)
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 1 {
		t.Fatalf("self loop: got %v", res.Tuples)
	}
	// Parallel atoms merge by intersection: R(x,y) ∧ S(x,y).
	res = evalText(t, "Q(x, y) :- R(x, y), S(x, y)", rels)
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 1 || res.Tuples[0][1] != 2 {
		t.Fatalf("parallel atoms: got %v", res.Tuples)
	}
}

func TestStrategyHintsHonored(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{1, 11}, [2]int32{2, 10}),
		"S": rel(t, "S", [2]int32{10, 5}, [2]int32{11, 5}),
	}
	for _, strat := range []string{"mm", "wcoj", "nonmm"} {
		res := evalText(t, "Q(x, z) :- R(x, y), S(y, z) WITH strategy="+strat, rels)
		if len(res.Tuples) != 2 {
			t.Fatalf("strategy %s: got %v", strat, res.Tuples)
		}
		if !strings.Contains(res.Plan.String(), "strategy="+strat) {
			t.Fatalf("strategy %s not reported in plan:\n%s", strat, res.Plan)
		}
	}
}

// TestForcedMMFoldReportsThresholds pins the thresholds a forced-mm fold
// reports to the ones its kernel ran with: the Section-3.1 closed forms of
// the two operands, Algorithm 1 taking the right one swapped to (z, y).
func TestForcedMMFoldReportsThresholds(t *testing.T) {
	var rp, sp [][2]int32
	for x := int32(0); x < 40; x++ {
		for k := int32(0); k < 6; k++ {
			rp = append(rp, [2]int32{x, (x*7 + k) % 24})
			sp = append(sp, [2]int32{(x*5 + k) % 24, x})
		}
	}
	rels := map[string]*relation.Relation{"R": rel(t, "R", rp...), "S": rel(t, "S", sp...)}
	res := evalText(t, "Q(x, z) :- R(x, y), S(y, z) WITH strategy=mm", rels)
	d1, d2 := joinproject.HeuristicThresholds(rels["R"], rels["S"].Swap())
	var folds int
	res.Plan.Walk(func(n *Node) {
		if n.Op != "fold" {
			return
		}
		folds++
		if n.Strategy != joinproject.StrategyMM || n.Delta1 != d1 || n.Delta2 != d2 {
			t.Errorf("fold node strategy=%s Δ1=%d Δ2=%d, want mm Δ1=%d Δ2=%d", n.Strategy, n.Delta1, n.Delta2, d1, d2)
		}
		if want := fmt.Sprintf("Δ1=%d Δ2=%d", d1, d2); !strings.Contains(n.Detail, want) {
			t.Errorf("fold detail %q lacks %q", n.Detail, want)
		}
	})
	if folds != 1 {
		t.Fatalf("want one fold node, got %d:\n%s", folds, res.Plan)
	}
}

func TestExplainReportsChoices(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{1, 11}, [2]int32{2, 10}),
		"S": rel(t, "S", [2]int32{10, 5}, [2]int32{11, 5}),
		"T": rel(t, "T", [2]int32{5, 3}),
	}
	p, err := Prepare("Q(x, w) :- R(x, y), S(y, z), T(z, w)", MapResolver(rels))
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Explain(ExecOptions{Optimizer: optimizer.New(), Workers: 1})
	if !plan.Predicted {
		t.Fatal("Explain plan should be predicted")
	}
	s := plan.String()
	if !strings.Contains(s, "fold") || !strings.Contains(s, "strategy=") {
		t.Fatalf("explain should report per-node strategies:\n%s", s)
	}
	// Executing yields concrete strategies on every fold node.
	res, err := p.Execute(context.Background(), ExecOptions{Optimizer: optimizer.New(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Plan.Strategies() {
		if strings.HasSuffix(st, "=auto") {
			t.Fatalf("executed plan has unresolved strategy %s:\n%s", st, res.Plan)
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{2, 11}),
		"S": rel(t, "S", [2]int32{10, 20}, [2]int32{11, 21}),
		"T": rel(t, "T", [2]int32{20, 30}, [2]int32{21, 31}),
		"U": rel(t, "U", [2]int32{30, 40}, [2]int32{31, 41}),
	}
	src := "Q(a, e) :- R(a, b), S(b, c), T(c, d), U(d, e)"
	p, err := Prepare(src, MapResolver(rels))
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 10; i++ {
		res, err := p.Execute(context.Background(), ExecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Plan.String()
		} else if got := res.Plan.String(); got != first {
			t.Fatalf("plan changed between runs:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	rels := map[string]*relation.Relation{
		"R": rel(t, "R", [2]int32{1, 10}, [2]int32{10, 5}),
	}
	p, err := Prepare("Q(a, c) :- R(a, b), R(b, c)", MapResolver(rels))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Execute(ctx, ExecOptions{Workers: 1}); err == nil {
		t.Fatal("expected context error")
	}
}
