// Package acyclic extends the join-project engine beyond star queries, in
// the direction the paper's conclusion proposes: "extend our techniques to
// arbitrary acyclic queries with projections ... building a query plan that
// decomposes the join into multiple subqueries and evaluates in the optimal
// way".
//
// The package provides the composition layer the generic planner of
// internal/query is built on: every acyclic shape is evaluated by composing
// the output-sensitive 2-path and star primitives of internal/joinproject,
// each fold running the strategy its caller pinned (MM, WCOJ or the
// combinatorial plan; the query executor pins the cost model's choice).
//
//   - Path queries P_k(x0, xk) = R1(x0,x1), R2(x1,x2), ..., Rk(x_{k-1},xk),
//     projected onto the endpoints. Adjacent relations are folded with the
//     2-path algorithm (each fold is a projection, so intermediates stay
//     output-sensitive rather than growing like the full join), either
//     left-deep or by balanced halving (bushy), mirroring a query plan's
//     choice of join order.
//
//   - Snowflake queries: a star whose arms are chains. Each arm is folded
//     into a (center, leaf) view with PathProject, then the arm views are
//     combined with the Section-3.2 star algorithm.
//
//   - Arbitrary folds: Compose exposes one composition step so the
//     internal/query executor can collapse any acyclic join tree, reporting
//     the strategy and thresholds each fold ran with for EXPLAIN.
//
// Every intermediate is itself deduplicated, which is exactly the reason
// pushing projections through the plan wins over materializing the full
// acyclic join.
package acyclic

import (
	"fmt"

	"repro/internal/joinproject"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// Order selects the fold order for path queries.
type Order int

const (
	// OrderAuto picks bushy for k ≥ 4 relations and left-deep otherwise.
	OrderAuto Order = iota
	// OrderLeftDeep folds relations left to right.
	OrderLeftDeep
	// OrderBushy recursively folds halves — the balanced plan, whose
	// intermediates depend only on log-many compositions.
	OrderBushy
)

// Strategy names for composition decisions, as defined by joinproject.
const (
	StrategyMM    = joinproject.StrategyMM
	StrategyWCOJ  = joinproject.StrategyWCOJ
	StrategyNonMM = joinproject.StrategyNonMM
)

// Options configures acyclic evaluation.
type Options struct {
	// Join options forwarded to every 2-path / star composition.
	Join joinproject.Options
	// Order selects the fold order for chains.
	Order Order
	// Force pins every composition, and a snowflake's star step, to one
	// strategy (StrategyMM, StrategyWCOJ or StrategyNonMM). Empty runs
	// StrategyMM.
	Force string
}

// Compose computes V(a, c) = π_{a,c}(L(a, b) ⋈ R(b, c)) as one composition
// step, running the opt.Force strategy with opt.Join's thresholds (unset
// ones resolved by joinproject.Thresholds). Algorithm 1 joins the second
// columns of both operands, so the right-hand relation is swapped into
// (c, b) orientation first; the output pairs are then (L.x, R.Swap().x) =
// (a, c) as required. The returned decision holds the strategy and
// thresholds that ran.
func Compose(l, r *relation.Relation, opt Options) (*relation.Relation, optimizer.Decision) {
	halt := func() bool { return opt.Join.Stop != nil && opt.Join.Stop() }
	dec := optimizer.Decision{Strategy: opt.Force}
	if dec.Strategy == "" {
		dec.Strategy = StrategyMM
	}
	var pairs [][2]int32
	// A tripped Stop short-circuits the whole step: the join itself polls
	// Stop, but the swap, the join, and the output materialization each cost
	// real time on large intermediates, so skipping them keeps the
	// cancel-to-return latency bounded. The caller discards the (empty)
	// partial result once it observes the cancellation.
	if !halt() {
		rs := r.Swap()
		if !halt() {
			jopt := joinproject.Thresholds(dec.Strategy, opt.Join, false, l, rs)
			if dec.Strategy != StrategyWCOJ {
				dec.Delta1, dec.Delta2 = jopt.Delta1, jopt.Delta2
			}
			pairs = joinproject.TwoPath(dec.Strategy, l, rs, jopt)
		}
	}
	if halt() {
		pairs = nil
	}
	ps := make([]relation.Pair, len(pairs))
	for i, p := range pairs {
		ps[i] = relation.Pair{X: p[0], Y: p[1]}
	}
	return relation.FromPairs(l.Name()+"∘"+r.Name(), ps), dec
}

// PathProject evaluates π_{x0,xk}(R1(x0,x1) ⋈ ... ⋈ Rk(x_{k-1},x_k)).
// Relations are oriented head→tail: Ri's first column joins R(i−1)'s second.
func PathProject(rels []*relation.Relation, opt Options) ([][2]int32, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("acyclic: empty path query")
	}
	v := foldPath(rels, opt)
	out := make([][2]int32, 0, v.Size())
	for _, p := range v.Pairs() {
		out = append(out, [2]int32{p.X, p.Y})
	}
	return out, nil
}

// foldPath reduces the chain to a single (head, tail) relation.
func foldPath(rels []*relation.Relation, opt Options) *relation.Relation {
	if len(rels) == 1 {
		return rels[0]
	}
	order := opt.Order
	if order == OrderAuto {
		if len(rels) >= 4 {
			order = OrderBushy
		} else {
			order = OrderLeftDeep
		}
	}
	if order == OrderBushy {
		mid := len(rels) / 2
		v, _ := Compose(foldPath(rels[:mid], opt), foldPath(rels[mid:], opt), opt)
		return v
	}
	acc := rels[0]
	for _, next := range rels[1:] {
		acc, _ = Compose(acc, next, opt)
	}
	return acc
}
