package joinproject

import "repro/internal/relation"

// Strategy names: the plans a join-project evaluation can run. Every layer
// above this package (the optimizer's decisions, acyclic folds, the query
// executor, view maintenance, the engine façade) passes one of these names
// down, and Thresholds and the dispatch below map it to a kernel here.
const (
	// StrategyMM is Algorithm 1: light values through the indexed join with
	// constant-time dedup, the all-heavy residual through bit-matrix
	// products.
	StrategyMM = "mm"
	// StrategyWCOJ is the plain worst-case optimal join with dedup that
	// Algorithm 3 falls back to. It is not a separate kernel: it is
	// Algorithm 1 with every value light (Sections 3.1 and 5).
	StrategyWCOJ = "wcoj"
	// StrategyNonMM is the combinatorial variant (Lemma 2): Algorithm 1's
	// partition with the heavy residual intersected list by list instead of
	// multiplied.
	StrategyNonMM = "nonmm"
)

// Thresholds returns opt with the degree thresholds Δ1, Δ2 that strategy
// runs with on rels: the 2-path instance (R, S), or the arms of a star when
// star is set. WCOJ gets the all-light bound max|Ri|+1 on both thresholds,
// which classifies every value as light. MM and NonMM keep explicit
// thresholds (> 0) and fill unset ones with the Section-3.1 closed forms,
// HeuristicThresholds or HeuristicStarThresholds.
func Thresholds(strategy string, opt Options, star bool, rels ...*relation.Relation) Options {
	if strategy == StrategyWCOJ {
		n := 0
		for _, r := range rels {
			n = max(n, r.Size())
		}
		opt.Delta1, opt.Delta2 = n+1, n+1
		return opt
	}
	if opt.Delta1 > 0 && opt.Delta2 > 0 {
		return opt
	}
	var d1, d2 int
	if star {
		d1, d2 = HeuristicStarThresholds(rels, len(rels))
	} else {
		d1, d2 = HeuristicThresholds(rels[0], rels[1])
	}
	if opt.Delta1 <= 0 {
		opt.Delta1 = d1
	}
	if opt.Delta2 <= 0 {
		opt.Delta2 = d2
	}
	return opt
}

// twoPath evaluates π_{x,z}(R(x,y) ⋈ S(z,y)) with strategy's thresholds
// and Algorithm 1's sweep: NonMM intersects lists for the all-heavy
// residual, anything else multiplies bit rows (WCOJ has no heavy value).
// sink receives the worker index, the pair and, when counting, its exact
// witness count (1 otherwise); all pairs of one x arrive from a single
// goroutine.
func twoPath(strategy string, r, s *relation.Relation, opt Options, counting bool, sink func(worker int, x, z, count int32)) {
	opt = Thresholds(strategy, opt, false, r, s)
	residual := residualMatrix
	if strategy == StrategyNonMM {
		residual = residualLists
	}
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop, residual)
	c.runMode(opt.Workers, counting, c.resolveDedup(opt.Dedup), sink)
}

// StarKernel names the strategy whose kernel runs a star under strategy.
// The star's WCOJ plan is its combinatorial enumeration, so WCOJ maps to
// NonMM; anything but WCOJ and NonMM runs the MM kernel.
func StarKernel(strategy string) string {
	if strategy == StrategyWCOJ || strategy == StrategyNonMM {
		return StrategyNonMM
	}
	return StrategyMM
}

// Star evaluates the projected star query with StarKernel(strategy)'s kernel
// and returns the distinct tuples and the options it ran with: thresholds
// resolved for the MM kernel, as given for the combinatorial one, which
// runs every value light whatever they say.
func Star(strategy string, rels []*relation.Relation, opt Options) ([][]int32, Options) {
	if StarKernel(strategy) == StrategyNonMM {
		return StarNonMM(rels, opt), opt
	}
	opt = Thresholds(StrategyMM, opt, true, rels...)
	return StarMM(rels, opt), opt
}
