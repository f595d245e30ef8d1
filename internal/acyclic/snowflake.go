package acyclic

import (
	"fmt"

	"repro/internal/joinproject"
	"repro/internal/relation"
)

// SnowflakeProject evaluates a star query whose arms are chains: arm i is a
// list of relations [A1(center, u1), A2(u1, u2), ..., Am(u_{m-1}, leaf_i)],
// oriented outward from the shared center variable. The result is the
// projection onto the arm leaves: π_{leaf_1..leaf_k}.
//
// Each arm is first folded into a (center, leaf) view with the chain
// evaluator, then the views are combined with the star kernel of opt.Force
// (joining on the center): the Section-3.2 algorithm, or the combinatorial
// enumeration under StrategyWCOJ and StrategyNonMM. Projections are pushed
// through every level, so no intermediate exceeds its own projected size.
func SnowflakeProject(arms [][]*relation.Relation, opt Options) ([][]int32, error) {
	if len(arms) == 0 {
		return nil, fmt.Errorf("acyclic: snowflake with no arms")
	}
	views := make([]*relation.Relation, len(arms))
	for i, arm := range arms {
		if len(arm) == 0 {
			return nil, fmt.Errorf("acyclic: arm %d is empty", i)
		}
		// Fold the chain to V(center, leaf), then swap to (leaf, center) so
		// the star joins on the center variable.
		views[i] = foldPath(arm, opt).Swap()
	}
	if len(views) == 1 {
		// A one-armed snowflake is just the arm view projected to its leaf
		// values... keep the (leaf) tuples.
		var out [][]int32
		seen := map[int32]bool{}
		for _, p := range views[0].Pairs() {
			if !seen[p.X] {
				seen[p.X] = true
				out = append(out, []int32{p.X})
			}
		}
		return out, nil
	}
	tuples, _ := joinproject.Star(opt.Force, views, opt.Join)
	return tuples, nil
}

// Reachable reports whether any path instance connects head value a to tail
// value c through the chain — the boolean variant of PathProject, answered
// without enumerating the output (the chain is folded with both endpoint
// relations restricted to the constants first).
func Reachable(rels []*relation.Relation, a, c int32, opt Options) (bool, error) {
	if len(rels) == 0 {
		return false, fmt.Errorf("acyclic: empty path query")
	}
	restricted := make([]*relation.Relation, len(rels))
	copy(restricted, rels)
	restricted[0] = rels[0].RestrictXSet([]int32{a})
	last := len(rels) - 1
	if last == 0 {
		return restricted[0].Contains(a, c), nil
	}
	restricted[last] = rels[last].Swap().RestrictXSet([]int32{c}).Swap()
	v := foldPath(restricted, opt)
	return v.Contains(a, c), nil
}
