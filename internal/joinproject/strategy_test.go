package joinproject

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
)

// TestStrategyDispatchMatchesOracle runs every output shape of the 2-path
// dispatch under each strategy, with and without explicit thresholds,
// against the nested-loop oracle.
func TestStrategyDispatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := skewedRel(rng, "R", 900, 60, 40)
	s := skewedRel(rng, "S", 900, 60, 40)
	want := bruteCounts(r, s)
	distinct, witnesses := map[int32]int64{}, map[int32]int64{}
	for p, c := range want {
		distinct[p[0]]++
		witnesses[p[0]] += int64(c)
	}
	for _, strat := range []string{StrategyMM, StrategyWCOJ, StrategyNonMM} {
		for _, opt := range []Options{{Workers: 2}, {Delta1: 2, Delta2: 3, Workers: 2}} {
			checkPairsEqual(t, TwoPath(strat, r, s, opt), want, strat+" pairs")
			checkCountsEqual(t, TwoPathCounts(strat, r, s, opt), want, strat+" counts")
			groups := GroupBy(strat, r, s, opt)
			if len(groups) != len(distinct) {
				t.Fatalf("%s: %d groups, want %d", strat, len(groups), len(distinct))
			}
			for _, g := range groups {
				if g.Distinct != distinct[g.X] || g.Witnesses != witnesses[g.X] {
					t.Fatalf("%s: group %d = (%d, %d), want (%d, %d)",
						strat, g.X, g.Distinct, g.Witnesses, distinct[g.X], witnesses[g.X])
				}
			}
		}
	}
}

// TestThresholdsResolve checks the one threshold rule: WCOJ is the all-light
// bound, MM and NonMM keep explicit thresholds and fill unset ones from the
// closed forms.
func TestThresholdsResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	r := skewedRel(rng, "R", 500, 50, 30)
	s := skewedRel(rng, "S", 700, 50, 30)
	n := max(r.Size(), s.Size()) + 1
	if o := Thresholds(StrategyWCOJ, Options{Delta1: 3, Delta2: 4}, false, r, s); o.Delta1 != n || o.Delta2 != n {
		t.Fatalf("wcoj thresholds (%d, %d), want all-light %d", o.Delta1, o.Delta2, n)
	}
	h1, h2 := HeuristicThresholds(r, s)
	for _, strat := range []string{StrategyMM, StrategyNonMM} {
		if o := Thresholds(strat, Options{Delta1: 3, Delta2: 4}, false, r, s); o.Delta1 != 3 || o.Delta2 != 4 {
			t.Fatalf("%s dropped explicit thresholds: (%d, %d)", strat, o.Delta1, o.Delta2)
		}
		if o := Thresholds(strat, Options{Delta2: 4}, false, r, s); o.Delta1 != h1 || o.Delta2 != 4 {
			t.Fatalf("%s partial fill (%d, %d), want (%d, 4)", strat, o.Delta1, o.Delta2, h1)
		}
		if o := Thresholds(strat, Options{}, false, r, s); o.Delta1 != h1 || o.Delta2 != h2 {
			t.Fatalf("%s fill (%d, %d), want (%d, %d)", strat, o.Delta1, o.Delta2, h1, h2)
		}
	}
	rels := []*relation.Relation{r, s, r}
	s1, s2 := HeuristicStarThresholds(rels, 3)
	if o := Thresholds(StrategyMM, Options{}, true, rels...); o.Delta1 != s1 || o.Delta2 != s2 {
		t.Fatalf("star fill (%d, %d), want (%d, %d)", o.Delta1, o.Delta2, s1, s2)
	}
	if k := StarKernel(StrategyWCOJ); k != StrategyNonMM {
		t.Fatalf("star wcoj runs %s, want the combinatorial kernel", k)
	}
	if _, o := Star(StrategyWCOJ, rels, Options{}); o.Delta1 != 0 || o.Delta2 != 0 {
		t.Fatalf("star wcoj changed the thresholds the combinatorial kernel ignores: (%d, %d)", o.Delta1, o.Delta2)
	}
	if _, o := Star(StrategyMM, rels, Options{}); o.Delta1 != s1 || o.Delta2 != s2 {
		t.Fatalf("star mm ran with (%d, %d), want (%d, %d)", o.Delta1, o.Delta2, s1, s2)
	}
}

// TestGroupByPollsStop checks that the group-by kernel honours Options.Stop,
// so a cancelled COUNT query stops mid-sweep like the plain fold.
func TestGroupByPollsStop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r := skewedRel(rng, "R", 2000, 300, 100)
	var polled atomic.Bool
	stop := func() bool {
		polled.Store(true)
		return false
	}
	TwoPathGroupBy(r, r, Options{Workers: 2, Stop: stop})
	if !polled.Load() {
		t.Fatal("TwoPathGroupBy never polled Options.Stop")
	}
}
