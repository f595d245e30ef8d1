package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bsi"
	"repro/internal/dataset"
	"repro/internal/joinproject"
	"repro/internal/obs"
	"repro/internal/relation"
)

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(rng.Intn(xdom)), Y: int32(rng.Intn(ydom))}
	}
	return relation.FromPairs(name, ps)
}

func brute(r, s *relation.Relation) map[[2]int32]int32 {
	out := map[[2]int32]int32{}
	for _, rp := range r.Pairs() {
		for _, sp := range s.Pairs() {
			if rp.Y == sp.Y {
				out[[2]int32{rp.X, sp.X}]++
			}
		}
	}
	return out
}

func TestStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	r := randomRel(rng, "R", 800, 60, 30)
	s := randomRel(rng, "S", 800, 60, 30)
	want := brute(r, s)
	for _, strat := range []Strategy{Auto, ForceMM, ForceWCOJ, ForceNonMM} {
		eng := NewEngine(WithStrategy(strat), WithWorkers(2))
		got, plan := eng.JoinProject(r, s)
		if len(got) != len(want) {
			t.Fatalf("%v (plan %s): %d pairs, want %d", strat, plan.Strategy, len(got), len(want))
		}
		for _, p := range got {
			if _, ok := want[p]; !ok {
				t.Fatalf("%v: spurious pair %v", strat, p)
			}
		}
		counts, _ := eng.JoinProjectCounts(r, s)
		if len(counts) != len(want) {
			t.Fatalf("%v counts: %d pairs, want %d", strat, len(counts), len(want))
		}
		for _, pc := range counts {
			if want[[2]int32{pc.X, pc.Z}] != pc.Count {
				t.Fatalf("%v: pair (%d,%d) count %d, want %d", strat, pc.X, pc.Z, pc.Count, want[[2]int32{pc.X, pc.Z}])
			}
		}
	}
}

func TestAutoPlanChoices(t *testing.T) {
	sparse, _ := dataset.ByName("RoadNet", 0.3)
	eng := NewEngine()
	if plan := eng.Explain(sparse, sparse); plan.Strategy != "wcoj" {
		t.Fatalf("sparse plan = %s, want wcoj", plan.Strategy)
	}
	dense, _ := dataset.ByName("Image", 0.4)
	if plan := eng.Explain(dense, dense); plan.Strategy != "mm" {
		t.Fatalf("dense plan = %s, want mm", plan.Strategy)
	}
}

func TestThresholdOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	r := randomRel(rng, "R", 400, 40, 20)
	eng := NewEngine(WithStrategy(ForceMM), WithThresholds(3, 5))
	got, plan := eng.JoinProject(r, r)
	if plan.Delta1 != 3 || plan.Delta2 != 5 {
		t.Fatalf("plan thresholds (%d,%d), want (3,5)", plan.Delta1, plan.Delta2)
	}
	if len(got) != len(brute(r, r)) {
		t.Fatal("override changed the result")
	}
}

func TestStarJoinStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	rels := []*relation.Relation{
		randomRel(rng, "R1", 300, 20, 12),
		randomRel(rng, "R2", 300, 20, 12),
		randomRel(rng, "R3", 300, 20, 12),
	}
	var base map[string]bool
	for _, strat := range []Strategy{Auto, ForceMM, ForceNonMM} {
		eng := NewEngine(WithStrategy(strat), WithWorkers(2))
		got, _ := eng.StarJoin(rels)
		set := map[string]bool{}
		for _, xs := range got {
			key := ""
			for _, v := range xs {
				key += string(rune(v)) + ","
			}
			set[key] = true
		}
		if base == nil {
			base = set
			continue
		}
		if len(set) != len(base) {
			t.Fatalf("%v star: %d tuples, want %d", strat, len(set), len(base))
		}
	}
}

func TestSimilarAndContainedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	r := randomRel(rng, "R", 300, 40, 20)
	mm := NewEngine()
	comb := NewEngine(WithStrategy(ForceNonMM))
	simMM := mm.SimilarSets(r, 2)
	simComb := comb.SimilarSets(r, 2)
	if len(simMM) != len(simComb) {
		t.Fatalf("SSJ mismatch: mm=%d comb=%d", len(simMM), len(simComb))
	}
	ordered := mm.SimilarSetsOrdered(r, 2)
	if len(ordered) != len(simMM) {
		t.Fatalf("ordered SSJ size %d, want %d", len(ordered), len(simMM))
	}
	scjMM := mm.ContainedSets(r)
	scjComb := comb.ContainedSets(r)
	if len(scjMM) != len(scjComb) {
		t.Fatalf("SCJ mismatch: mm=%d comb=%d", len(scjMM), len(scjComb))
	}
}

func TestIntersectBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	r := randomRel(rng, "R", 400, 50, 25)
	s := randomRel(rng, "S", 400, 50, 25)
	queries := bsi.RandomWorkload(r, s, 100, 5)
	for _, strat := range []Strategy{Auto, ForceNonMM} {
		eng := NewEngine(WithStrategy(strat))
		got := eng.IntersectBatch(r, s, queries)
		for i, q := range queries {
			if got[i] != bsi.AnswerSingle(r, s, q) {
				t.Fatalf("%v: query %v wrong", strat, q)
			}
		}
	}
}

func TestPlanString(t *testing.T) {
	cases := []Plan{
		{Strategy: "mm", Delta1: 3, Delta2: 4, EstOut: 100, OutJoin: 1000},
		{Strategy: "wcoj", OutJoin: 50},
		{Strategy: "nonmm", Delta1: 1, Delta2: 1},
	}
	for _, p := range cases {
		if p.String() == "" {
			t.Fatalf("empty String for %+v", p)
		}
	}
	if got := (Plan{Strategy: "wcoj", OutJoin: 5}).String(); got != "plan=wcoj |OUT⋈|=5 (≤ 20·N fallback)" {
		t.Fatalf("wcoj plan string = %q", got)
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{Auto: "auto", ForceMM: "mm", ForceWCOJ: "wcoj", ForceNonMM: "nonmm", Strategy(9): "strategy(9)"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %s, want %s", int(s), s.String(), want)
		}
	}
}

func TestOptimizerAccessor(t *testing.T) {
	if NewEngine().Optimizer() == nil {
		t.Fatal("engine should expose its optimizer")
	}
}

func TestEngineCompressView(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	r := randomRel(rng, "R", 400, 40, 20)
	eng := NewEngine()
	v := eng.CompressView(r, r)
	want := brute(r, r)
	if v.Count() != int64(len(want)) {
		t.Fatalf("view count %d, want %d", v.Count(), len(want))
	}
	for p := range want {
		if !v.Contains(p[0], p[1]) {
			t.Fatalf("view missing %v", p)
		}
	}
}

func TestEnginePathAndSnowflake(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	r1 := randomRel(rng, "R1", 200, 20, 20)
	r2 := randomRel(rng, "R2", 200, 20, 20)
	r3 := randomRel(rng, "R3", 200, 20, 20)
	eng := NewEngine(WithWorkers(2))
	path, err := eng.PathProject([]*relation.Relation{r1, r2, r3})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: every endpoint pair must be connected through some witness.
	if len(path) == 0 {
		t.Skip("random chain disconnected; acyclic package tests cover correctness")
	}
	snow, err := eng.SnowflakeProject([][]*relation.Relation{{r1}, {r2}})
	if err != nil {
		t.Fatal(err)
	}
	_ = snow
	if _, err := eng.PathProject(nil); err == nil {
		t.Fatal("empty path should error")
	}
}

func TestEngineGroupByAndTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	r := randomRel(rng, "R", 400, 40, 20)
	eng := NewEngine(WithWorkers(2))
	groups := eng.GroupByCount(r, r)
	want := brute(r, r)
	wantDistinct := map[int32]int64{}
	for p := range want {
		wantDistinct[p[0]]++
	}
	if len(groups) != len(wantDistinct) {
		t.Fatalf("%d groups, want %d", len(groups), len(wantDistinct))
	}
	for _, g := range groups {
		if g.Distinct != wantDistinct[g.X] {
			t.Fatalf("group %d: distinct %d, want %d", g.X, g.Distinct, wantDistinct[g.X])
		}
	}
	top := eng.TopSimilarSets(r, 1, 5)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("TopSimilarSets returned %d pairs", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Overlap < top[i].Overlap {
			t.Fatal("top pairs not descending")
		}
	}
}

func TestJoinProjectVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := randomRel(rng, "R", 500, 50, 25)
	want := brute(r, r)
	kernelCalls := obs.Default().CounterVec("joinmm_kernel_calls_total", "", "kernel")
	matrixCalls := func() uint64 {
		return kernelCalls.With("mulbitcount").Value() + kernelCalls.With("roweachproduct").Value()
	}
	cases := []struct {
		name string
		opts []Option
		plan []string // acceptable plan strategies
	}{
		{"auto", nil, []string{"mm", "wcoj"}},
		{"mm", []Option{WithStrategy(ForceMM)}, []string{"mm"}},
		{"wcoj", []Option{WithStrategy(ForceWCOJ)}, []string{"wcoj"}},
		{"nonmm", []Option{WithStrategy(ForceNonMM)}, []string{"nonmm"}},
		// Every value heavy: the combinatorial kernel must still run no
		// matrix product.
		{"nonmm all heavy", []Option{WithStrategy(ForceNonMM), WithThresholds(1, 1)}, []string{"nonmm"}},
	}
	for _, tc := range cases {
		var mu sync.Mutex
		got := map[[2]int32]int32{}
		eng := NewEngine(append([]Option{WithWorkers(4)}, tc.opts...)...)
		before := matrixCalls()
		plan := eng.JoinProjectVisit(r, r, func(x, z, n int32) {
			mu.Lock()
			got[[2]int32{x, z}] += n
			mu.Unlock()
		})
		if !slices.Contains(tc.plan, plan.Strategy) {
			t.Fatalf("%s: plan strategy %q, want one of %v", tc.name, plan.Strategy, tc.plan)
		}
		if plan.Strategy != "wcoj" && (plan.Delta1 < 1 || plan.Delta2 < 1) {
			t.Fatalf("%s: plan %s does not report the thresholds it ran with", tc.name, plan)
		}
		if plan.Strategy == "nonmm" && matrixCalls() != before {
			t.Fatalf("%s: the combinatorial plan ran a matrix kernel", tc.name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: visit saw %d pairs, want %d", tc.name, len(got), len(want))
		}
		for p, c := range want {
			if got[p] != c {
				t.Fatalf("%s: pair %v count %d, want %d", tc.name, p, got[p], c)
			}
		}
	}
}

// TestStrategyPinReachesAcyclicCalls checks that the engine's strategy pin
// reaches SnowflakeProject, PathProject and GroupByCount: the combinatorial
// pins must run no matrix kernel for the snowflake's star step, and every pin
// must return ForceMM's result.
func TestStrategyPinReachesAcyclicCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	var arms [][]*relation.Relation
	for i := 0; i < 3; i++ {
		arms = append(arms, []*relation.Relation{
			randomRel(rng, "A", 120, 10, 6), randomRel(rng, "B", 120, 6, 12),
		})
	}
	chain := []*relation.Relation{arms[0][0], arms[0][1].Swap(), arms[1][1]}
	kernelCalls := obs.Default().CounterVec("joinmm_kernel_calls_total", "", "kernel")
	matrixCalls := func() uint64 {
		return kernelCalls.With("mulbitcount").Value() + kernelCalls.With("roweachproduct").Value()
	}
	sorted := func(xs [][]int32) [][]int32 {
		slices.SortFunc(xs, slices.Compare)
		return xs
	}
	run := func(s Strategy) (snow [][]int32, calls uint64, path [][2]int32, groups []joinproject.GroupCount) {
		eng := NewEngine(WithWorkers(2), WithStrategy(s))
		before := matrixCalls()
		snow, err := eng.SnowflakeProject(arms)
		if err != nil {
			t.Fatal(err)
		}
		calls = matrixCalls() - before
		if path, err = eng.PathProject(chain); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(path, func(a, b [2]int32) int { return slices.Compare(a[:], b[:]) })
		groups = eng.GroupByCount(arms[0][0], arms[1][0])
		slices.SortFunc(groups, func(a, b joinproject.GroupCount) int { return int(a.X - b.X) })
		return sorted(snow), calls, path, groups
	}
	wantSnow, mmCalls, wantPath, wantGroups := run(ForceMM)
	if mmCalls == 0 {
		t.Fatal("ForceMM snowflake ran no matrix kernel; the instance does not reach the star's matrix step")
	}
	for _, s := range []Strategy{ForceNonMM, ForceWCOJ} {
		snow, calls, path, groups := run(s)
		if calls != 0 {
			t.Errorf("%s: snowflake ran %d matrix kernel calls", s, calls)
		}
		if !slices.EqualFunc(snow, wantSnow, slices.Equal) {
			t.Errorf("%s: snowflake has %d tuples, ForceMM %d, or they differ", s, len(snow), len(wantSnow))
		}
		if !slices.Equal(path, wantPath) {
			t.Errorf("%s: path query differs from ForceMM's", s)
		}
		if !slices.Equal(groups, wantGroups) {
			t.Errorf("%s: group-by differs from ForceMM's", s)
		}
	}
}

func TestEngineKWaySimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	r := randomRel(rng, "R", 250, 25, 15)
	eng := NewEngine()
	tuples := eng.KWaySimilarSets(r, 3, 2)
	for _, tp := range tuples {
		if len(tp.Sets) != 3 || tp.Overlap < 2 {
			t.Fatalf("bad k-way tuple %+v", tp)
		}
	}
}

// TestEngineViewsAndMutations covers the engine façade of the view
// subsystem: register, serve, maintain under Mutate, explain, list, drop —
// and that mutations keep plan caching per-relation.
func TestEngineViewsAndMutations(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	pairs := func(ps ...[2]int32) []relation.Pair {
		out := make([]relation.Pair, len(ps))
		for i, p := range ps {
			out[i] = relation.Pair{X: p[0], Y: p[1]}
		}
		return out
	}
	if _, err := eng.Register("R", pairs([2]int32{1, 10}, [2]int32{2, 10})); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Register("S", pairs([2]int32{10, 5})); err != nil {
		t.Fatal(err)
	}
	v, err := eng.RegisterView(context.Background(), "vp", "V(x, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	_, tuples, _, err := v.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("initial view rows = %d, want 2", len(tuples))
	}

	// Mutations patch the view.
	if _, err := eng.Mutate("S", pairs([2]int32{10, 6}), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mutate("R", nil, pairs([2]int32{2, 10})); err != nil {
		t.Fatal(err)
	}
	_, tuples, fresh, err := v.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 { // (1,5), (1,6)
		t.Fatalf("maintained view rows = %v", tuples)
	}
	if fresh.Mode != "incremental" || fresh.Stale {
		t.Fatalf("freshness = %+v", fresh)
	}
	if plan := v.MaintenancePlan().String(); !strings.Contains(plan, "deltafold") {
		t.Fatalf("maintenance plan missing deltafold:\n%s", plan)
	}

	if infos := eng.Views(); len(infos) != 1 || infos[0].Name != "vp" {
		t.Fatalf("Views() = %+v", infos)
	}
	if _, ok := eng.View("vp"); !ok {
		t.Fatal("View lookup failed")
	}

	// The query path agrees with the view store.
	res, err := eng.Query("V(x, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(tuples) {
		t.Fatalf("query rows %d != view rows %d", len(res.Tuples), len(tuples))
	}

	if ok, err := eng.DropView("vp"); !ok || err != nil {
		t.Fatalf("DropView: ok=%v err=%v", ok, err)
	}
	if ok, err := eng.DropView("vp"); ok || err != nil {
		t.Fatal("DropView semantics")
	}
}
