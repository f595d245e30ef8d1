// Package joinproject implements the paper's primary contribution: output-
// sensitive evaluation of star join queries with projection, combining
// worst-case optimal join processing for low-degree ("light") values with
// matrix multiplication for high-degree ("heavy") values.
//
// The 2-path query ÜQ(x,z) = R(x,y), S(z,y) is evaluated by Algorithm 1 of
// the paper: relations are partitioned by the degree thresholds Δ1 (on the
// join variable y) and Δ2 (on the projected variables x and z); tuples with
// a light value are processed by an indexed join with constant-time
// deduplication, and the residual all-heavy subrelations are multiplied as
// bit-packed adjacency matrices. The star query Q★k generalizes this with a
// three-way partition per relation and grouped rectangular matrices
// (Section 3.2).
//
// The combinatorial Non-MMJoin of Lemma 2, the paper's baseline, is the same
// 2-path sweep: one degree partition, one loop over the light categories,
// and only the all-heavy residual (category 4) found by intersecting sorted
// heavy-y lists instead of ANDing bit rows. Factorize runs that sweep with
// the residual left as its two factor matrices, the compressed view of
// internal/compress.
//
// Callers name the plan with one of three strategies: StrategyMM
// (Algorithm 1), StrategyWCOJ (the worst-case optimal join with dedup that
// Algorithm 3 falls back to) and StrategyNonMM (the combinatorial variant).
// WCOJ is not a kernel of its own: it is Algorithm 1 with every value light,
// both thresholds at the all-light bound max(|R|, |S|)+1. Thresholds
// resolves the thresholds a strategy runs with, and TwoPath, TwoPathCounts,
// TwoPathVisit, GroupBy and Star run its kernel, so this package is the one
// place a strategy name becomes a kernel.
package joinproject

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/relation"
)

// DedupMode selects the light-part deduplication strategy of Section 6.
type DedupMode int

const (
	// DedupAuto picks DedupStamp for compact z-domains and DedupSort when
	// the stamp vector would not fit caches comfortably — "the best of the
	// two strategies, depending on the number of elements that need to be
	// deduplicated and the domain size".
	DedupAuto DedupMode = iota
	// DedupStamp uses the reusable per-x dedup vector over dom(z) (the
	// paper's code snippet), with an epoch trick instead of clearing.
	DedupStamp
	// DedupSort appends all reachable z values and sorts+uniques per x.
	DedupSort
)

// Options configures a join-project evaluation.
type Options struct {
	// Delta1 is the degree threshold on the join variable y; Delta2 is the
	// threshold on the projected variables. Values ≤ 0 select the paper's
	// closed-form thresholds (Section 3.1) from the output-size estimate.
	Delta1, Delta2 int
	// Workers bounds the parallelism; ≤ 0 uses all cores.
	Workers int
	// Dedup selects the light-part deduplication strategy.
	Dedup DedupMode
	// Stop, when non-nil, is polled at block boundaries of the evaluation
	// loops and inside the matrix kernels; a true return abandons the
	// remaining work (the output is then incomplete). Callers wire a
	// context-cancellation check here so a deadline interrupts a
	// long-running join instead of waiting out the full sweep.
	Stop func() bool
}

// PairCount is one projected output pair together with its witness count
// |{y : (X,y) ∈ R ∧ (Z,y) ∈ S}|.
type PairCount struct {
	X, Z  int32
	Count int32
}

// twoPathCtx holds the degree partition and the positional indexes the
// 2-path evaluation needs. Building it is the O(N log N) preprocessing pass.
type twoPathCtx struct {
	r, s   *relation.Relation
	d1, d2 int
	stop   func() bool // polled at block boundaries; nil = never stop

	sX, sY   *relation.Index
	zvals    []int32   // sX keys, ascending
	zDeg     []int32   // degree of each z position
	posByY   [][]int32 // per sY position: z positions (ascending)
	lightByY [][]int32 // per sY position, heavy y only: light z positions

	colOf []int32 // per sY position: heavy column id (ascending in y) or -1
	ncols int

	// The all-heavy residual: heavyZPos maps a heavy z's row id to its z
	// position; its heavy-y columns are a bit row of zRows (residualMatrix,
	// residualSkip) or an ascending list in zCols (residualLists).
	residual  residualPlan
	heavyZPos []int32
	zRows     *matrix.BitMatrix
	zCols     [][]int32

	rX    *relation.Index
	rYPos [][]int32 // per rX position: sY positions of its y list (-1 if absent from S)
}

// residualPlan selects how the sweep evaluates category 4 of Algorithm 1, the
// pairs whose witness has a heavy x, a heavy y and a heavy z. Categories 1–3
// run the same loops under every plan.
type residualPlan int

const (
	// residualMatrix ANDs each heavy x's heavy-y bit row with every heavy z
	// row and pop-counts the words: the bit-matrix product (StrategyMM, and
	// StrategyWCOJ, whose partition has no heavy value).
	residualMatrix residualPlan = iota
	// residualLists intersects each heavy x's ascending heavy-y column list
	// with every heavy z's (StrategyNonMM, Lemma 2).
	residualLists
	// residualSkip leaves category 4 unevaluated; Factorize returns its two
	// factors instead.
	residualSkip
)

// newTwoPathCtxParallel builds the positional indexes with the given degree
// of parallelism; construction is a per-key-independent transform, so it
// partitions coordination-free like the join itself. stop is polled between
// construction phases: preprocessing is O(N log N) and would otherwise be
// the one stretch a cancellation cannot interrupt. An early return leaves
// the context partially built, which is safe because the evaluation loops
// re-check stop before touching any of it.
func newTwoPathCtxParallel(r, s *relation.Relation, d1, d2, workers int, stop func() bool, residual residualPlan) *twoPathCtx {
	c := &twoPathCtx{r: r, s: s, d1: d1, d2: d2, stop: stop, residual: residual, sX: s.ByX(), sY: s.ByY(), rX: r.ByX()}
	halt := func() bool { return stop != nil && stop() }
	// rYPos must exist for the evaluation loops even on an abandoned build.
	c.rYPos = make([][]int32, c.rX.NumKeys())
	if halt() {
		return c
	}
	c.zvals = c.sX.Keys()
	c.zDeg = make([]int32, c.sX.NumKeys())
	for i := range c.zDeg {
		c.zDeg[i] = int32(c.sX.Degree(i))
	}
	if halt() {
		return c
	}

	// Heavy y columns: degree in S above Δ1.
	ny := c.sY.NumKeys()
	c.colOf = make([]int32, ny)
	for i := 0; i < ny; i++ {
		if c.sY.Degree(i) > d1 {
			c.colOf[i] = int32(c.ncols)
			c.ncols++
		} else {
			c.colOf[i] = -1
		}
	}

	// Positional z lists per y, plus the light-z sublists under heavy ys.
	c.posByY = make([][]int32, ny)
	carveLists(c.posByY, c.sY)
	c.lightByY = make([][]int32, ny)
	par.For(ny, workers, func(i int) {
		pos := c.posByY[i]
		for j, z := range c.sY.List(i) {
			pos[j] = int32(c.sX.Pos(z))
		}
		if c.colOf[i] >= 0 {
			var light []int32
			for _, zp := range pos {
				if int(c.zDeg[zp]) <= d2 {
					light = append(light, zp)
				}
			}
			c.lightByY[i] = light
		}
	})
	if halt() {
		return c
	}

	// Heavy z rows: z degree above Δ2 and at least one heavy y neighbour.
	if c.ncols > 0 {
		for zp := 0; zp < c.sX.NumKeys(); zp++ {
			if int(c.zDeg[zp]) <= d2 {
				continue
			}
			hasHeavy := false
			for _, y := range c.sX.List(zp) {
				if yp := c.sY.Pos(y); yp >= 0 && c.colOf[yp] >= 0 {
					hasHeavy = true
					break
				}
			}
			if hasHeavy {
				c.heavyZPos = append(c.heavyZPos, int32(zp))
			}
		}
	}
	if residual == residualLists {
		c.zCols = make([][]int32, len(c.heavyZPos))
	} else {
		c.zRows = matrix.NewBitMatrix(len(c.heavyZPos), c.ncols)
	}
	for row, zp := range c.heavyZPos {
		// S's y lists ascend, and so do column ids, so each list is sorted.
		for _, y := range c.sX.List(int(zp)) {
			if yp := c.sY.Pos(y); yp >= 0 {
				if col := c.colOf[yp]; col >= 0 {
					if residual == residualLists {
						c.zCols[row] = append(c.zCols[row], col)
					} else {
						c.zRows.Set(row, int(col))
					}
				}
			}
		}
	}

	if halt() {
		return c
	}

	// R-side positional lists into sY.
	carveLists(c.rYPos, c.rX)
	par.For(c.rX.NumKeys(), workers, func(i int) {
		pos := c.rYPos[i]
		for j, y := range c.rX.List(i) {
			pos[j] = int32(c.sY.Pos(y))
		}
	})
	return c
}

// carveLists points lists[i] at its own stretch of one new backing array, as
// long as ix's i-th partner list: one allocation for all of ix's keys.
func carveLists(lists [][]int32, ix *relation.Index) {
	n := 0
	for i := range lists {
		n += ix.Degree(i)
	}
	flat := make([]int32, n)
	for i := range lists {
		d := ix.Degree(i)
		lists[i], flat = flat[:d:d], flat[d:]
	}
}

// dedupSortThreshold is the z-domain size above which DedupAuto switches
// from the stamp vector to append+sort (the stamp array stops fitting in
// cache).
const dedupSortThreshold = 1 << 20

// resolveDedup maps DedupAuto to a concrete strategy for this instance.
func (c *twoPathCtx) resolveDedup(mode DedupMode) bool {
	switch mode {
	case DedupSort:
		return true
	case DedupStamp:
		return false
	default:
		return c.sX.NumKeys() > dedupSortThreshold
	}
}

// runMode evaluates the partitioned join with Algorithm 1, category 4 as
// c.residual selects. If counting is true, sink receives exact witness
// counts; otherwise it receives each distinct pair once with count 1.
// dedupSort selects the light-part dedup strategy and applies to set
// semantics only; the counting variant needs random-access accumulation and
// always uses the stamp vector. sink is invoked from multiple goroutines when
// workers > 1, with all pairs of one x value delivered from a single
// goroutine, and receives the worker (chunk) index so callers can keep
// coordination-free per-worker buffers — the Section-6 parallelization
// pattern.
func (c *twoPathCtx) runMode(workers int, counting, dedupSort bool, sink func(worker int, x, z, count int32)) {
	nx := c.rX.NumKeys()
	rowWords := (c.ncols + 63) / 64
	nw := par.Workers(workers)
	if nw > nx {
		nw = nx
	}
	if nw < 1 {
		return
	}
	// Dynamic block scheduling: heavy x values cluster, so static chunking
	// skews badly; workers pull fixed-size blocks from a shared cursor
	// instead (still coordination-free within a block).
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for chunk := 0; chunk < nw; chunk++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			w := &sweepWorker{aRow: bitset.FromWords(make([]uint64, rowWords), c.ncols)}
			if !dedupSort || counting {
				w.stamp = make([]int32, c.sX.NumKeys())
			}
			if counting {
				w.cnt = make([]int32, c.sX.NumKeys())
			}
			for {
				blockLo := int(cursor.Add(schedBlock) - schedBlock)
				if blockLo >= nx {
					return
				}
				if c.stop != nil && c.stop() {
					return
				}
				blockHi := blockLo + schedBlock
				if blockHi > nx {
					blockHi = nx
				}
				c.processBlock(blockLo, blockHi, chunk, counting, dedupSort, sink, w)
			}
		}(chunk)
	}
	wg.Wait()
}

// schedBlock is the dynamic scheduling granularity (x positions per pull).
const schedBlock = 64

// sweepWorker is one worker's reusable state: the dedup stamp vector over z
// positions, the witness counts and touched list of the counting variant, the
// DedupSort buffer, and the current heavy x's heavy-y columns as a bit row
// (residualMatrix) or an ascending list (residualLists).
type sweepWorker struct {
	stamp, cnt, touched, zbuf, aCols []int32
	aRow                             *bitset.Bitset
}

// processBlock evaluates x positions [lo, hi) with the worker-local state.
func (c *twoPathCtx) processBlock(lo, hi, chunk int, counting, dedupSort bool,
	sink func(worker int, x, z, count int32), w *sweepWorker) {
	stamp, cnt := w.stamp, w.cnt
	touched, zbuf := w.touched, w.zbuf
	defer func() { w.touched, w.zbuf = touched, zbuf }()
	residual := c.residual != residualSkip && len(c.heavyZPos) > 0
	for i := lo; i < hi; i++ {
		a := c.rX.Key(i)
		epoch := int32(i + 1)
		aHeavy := c.rX.Degree(i) > c.d2
		touched = touched[:0]
		zbuf = zbuf[:0]
		for _, yp := range c.rYPos[i] {
			if yp < 0 {
				continue
			}
			var cand []int32
			if c.colOf[yp] < 0 || !aHeavy {
				// Light y (category 1) or heavy y with light x
				// (category 2): expand every partner z.
				cand = c.posByY[yp]
			} else {
				// Heavy y and heavy x: only light z partners
				// (category 3); heavy z is the residual's job.
				cand = c.lightByY[yp]
			}
			switch {
			case counting:
				for _, zp := range cand {
					if stamp[zp] != epoch {
						stamp[zp] = epoch
						cnt[zp] = 1
						touched = append(touched, zp)
					} else {
						cnt[zp]++
					}
				}
			case dedupSort:
				zbuf = append(zbuf, cand...)
			default:
				for _, zp := range cand {
					if stamp[zp] != epoch {
						stamp[zp] = epoch
						sink(chunk, a, c.zvals[zp], 1)
					}
				}
			}
		}
		if aHeavy && residual {
			touched, zbuf = c.residualRow(i, chunk, counting, dedupSort, sink, w, touched, zbuf)
		}
		if counting {
			for _, zp := range touched {
				sink(chunk, a, c.zvals[zp], cnt[zp])
			}
		} else if dedupSort && len(zbuf) > 0 {
			// Section-6 alternative: append all reachable z values,
			// then sort + unique.
			slices.Sort(zbuf)
			for j, zp := range zbuf {
				if j == 0 || zp != zbuf[j-1] {
					sink(chunk, a, c.zvals[zp], 1)
				}
			}
		}
	}
}

// residualRow adds category 4 for the heavy x at position i: its heavy-y
// columns against every heavy z's, by bit-row AND (residualMatrix) or sorted
// list intersection (residualLists), accumulated like processBlock's light
// categories. It is kept out of processBlock so the light loops, the hot
// part on most inputs, keep their registers.
func (c *twoPathCtx) residualRow(i, chunk int, counting, dedupSort bool,
	sink func(worker int, x, z, count int32), w *sweepWorker, touched, zbuf []int32) ([]int32, []int32) {
	lists := c.residual == residualLists
	w.aCols = w.aCols[:0]
	clear(w.aRow.Words())
	heavyY := false
	for _, yp := range c.rYPos[i] {
		if yp >= 0 {
			if col := c.colOf[yp]; col >= 0 {
				heavyY = true
				if lists {
					// Ascending: R's y lists and column ids both follow y.
					w.aCols = append(w.aCols, col)
				} else {
					w.aRow.Set(int(col))
				}
			}
		}
	}
	if !heavyY {
		return touched, zbuf
	}
	a, epoch := c.rX.Key(i), int32(i+1)
	for j, zp := range c.heavyZPos {
		var n int
		if lists {
			n = relation.IntersectCount(w.aCols, c.zCols[j])
		} else {
			n = w.aRow.AndCount(c.zRows.Row(j))
		}
		if n == 0 {
			continue
		}
		switch {
		case counting:
			if w.stamp[zp] != epoch {
				w.stamp[zp] = epoch
				w.cnt[zp] = int32(n)
				touched = append(touched, zp)
			} else {
				w.cnt[zp] += int32(n)
			}
		case dedupSort:
			zbuf = append(zbuf, zp)
		default:
			if w.stamp[zp] != epoch {
				w.stamp[zp] = epoch
				sink(chunk, a, c.zvals[zp], 1)
			}
		}
	}
	return touched, zbuf
}

// pairCollector gathers output pairs into coordination-free per-worker
// buffers, concatenated in chunk order at the end (deterministic for a
// fixed worker count).
type pairCollector struct {
	slots [][][2]int32
}

func newPairCollector(chunks int) *pairCollector {
	return &pairCollector{slots: make([][][2]int32, chunks)}
}

func (pc *pairCollector) sink(worker int, x, z, _ int32) {
	pc.slots[worker] = append(pc.slots[worker], [2]int32{x, z})
}

func (pc *pairCollector) pairs() [][2]int32 {
	total := 0
	for _, s := range pc.slots {
		total += len(s)
	}
	out := make([][2]int32, 0, total)
	for _, s := range pc.slots {
		out = append(out, s...)
	}
	return out
}

type countCollector struct {
	slots [][]PairCount
}

func newCountCollector(chunks int) *countCollector {
	return &countCollector{slots: make([][]PairCount, chunks)}
}

func (cc *countCollector) sink(worker int, x, z, n int32) {
	cc.slots[worker] = append(cc.slots[worker], PairCount{X: x, Z: z, Count: n})
}

func (cc *countCollector) out() []PairCount {
	total := 0
	for _, s := range cc.slots {
		total += len(s)
	}
	out := make([]PairCount, 0, total)
	for _, s := range cc.slots {
		out = append(out, s...)
	}
	return out
}

// TwoPath evaluates π_{x,z}(R(x,y) ⋈ S(z,y)) with strategy's kernel and
// returns the distinct output pairs (order unspecified).
func TwoPath(strategy string, r, s *relation.Relation, opt Options) [][2]int32 {
	pc := newPairCollector(par.Workers(opt.Workers))
	twoPath(strategy, r, s, opt, false, pc.sink)
	return pc.pairs()
}

// TwoPathCounts evaluates the counting 2-path with strategy's kernel: every
// distinct output pair with its exact witness count. The light/heavy witness
// categories of Algorithm 1 partition the witness space, so counts are
// exact.
func TwoPathCounts(strategy string, r, s *relation.Relation, opt Options) []PairCount {
	cc := newCountCollector(par.Workers(opt.Workers))
	twoPath(strategy, r, s, opt, true, cc.sink)
	return cc.out()
}

// TwoPathVisit streams each distinct output pair and its witness count to
// visit, evaluated with strategy's kernel. visit is called concurrently when
// opt.Workers permits; it must be safe for concurrent use.
func TwoPathVisit(strategy string, r, s *relation.Relation, opt Options, visit func(x, z, count int32)) {
	twoPath(strategy, r, s, opt, true, func(_ int, x, z, n int32) { visit(x, z, n) })
}

// TwoPathMM is TwoPath with Algorithm 1.
func TwoPathMM(r, s *relation.Relation, opt Options) [][2]int32 {
	return TwoPath(StrategyMM, r, s, opt)
}

// TwoPathMMCounts is TwoPathCounts with Algorithm 1.
func TwoPathMMCounts(r, s *relation.Relation, opt Options) []PairCount {
	return TwoPathCounts(StrategyMM, r, s, opt)
}

// TwoPathMMVisit is TwoPathVisit with Algorithm 1.
func TwoPathMMVisit(r, s *relation.Relation, opt Options, visit func(x, z, count int32)) {
	TwoPathVisit(StrategyMM, r, s, opt, visit)
}

// TwoPathNonMM is the combinatorial Lemma-2 baseline: Algorithm 1's sweep,
// with the all-heavy residual computed by pairwise sorted-list intersections
// instead of bit-row products.
func TwoPathNonMM(r, s *relation.Relation, opt Options) [][2]int32 {
	return TwoPath(StrategyNonMM, r, s, opt)
}

// TwoPathNonMMCounts is the counting variant of TwoPathNonMM.
func TwoPathNonMMCounts(r, s *relation.Relation, opt Options) []PairCount {
	return TwoPathCounts(StrategyNonMM, r, s, opt)
}

// paddedCount is a cache-line-padded counter: per-worker tallies would
// otherwise false-share one line and serialize the workers.
type paddedCount struct {
	n int64
	_ [7]int64
}

// TwoPathSize returns |OUT| — the number of distinct output pairs — without
// materializing them.
func TwoPathSize(r, s *relation.Relation, opt Options) int64 {
	counts := make([]paddedCount, par.Workers(opt.Workers))
	twoPath(StrategyMM, r, s, opt, false, func(w int, _, _, _ int32) { counts[w].n++ })
	var total int64
	for _, pc := range counts {
		total += pc.n
	}
	return total
}

// Factorization is Algorithm 1's all-heavy residual of π_{x,z}(R ⋈ S) left
// unmultiplied: the boolean product M1·M2ᵀ holds exactly the pairs with a
// witness whose x, y and z are all heavy.
type Factorization struct {
	// HX and HZ are the heavy x and z values with at least one heavy y,
	// ascending: HX[i] owns row i of M1, HZ[j] row j of M2.
	HX, HZ []int32
	// M1 (heavy x × heavy y) and M2 (heavy z × heavy y) share the heavy-y
	// columns, numbered in ascending y.
	M1, M2 *matrix.BitMatrix
}

// Factorize runs Algorithm 1's sweep with category 4 skipped and returns the
// residual as its two factors. light receives every distinct pair with a
// light-category witness (categories 1–3) once, with the worker index as in
// TwoPath's sink; all pairs of one x arrive from a single goroutine. Unset
// thresholds resolve as for StrategyMM.
func Factorize(r, s *relation.Relation, opt Options, light func(worker int, x, z int32)) Factorization {
	opt = Thresholds(StrategyMM, opt, false, r, s)
	c := newTwoPathCtxParallel(r, s, opt.Delta1, opt.Delta2, opt.Workers, opt.Stop, residualSkip)
	c.runMode(opt.Workers, false, c.resolveDedup(opt.Dedup), func(w int, x, z, _ int32) { light(w, x, z) })
	f := Factorization{M2: c.zRows}
	if f.M2 == nil { // an abandoned build
		f.M2 = matrix.NewBitMatrix(0, c.ncols)
	}
	for _, zp := range c.heavyZPos {
		f.HZ = append(f.HZ, c.zvals[zp])
	}
	// Heavy x rows: x degree above Δ2 and at least one heavy y neighbour,
	// the rows category 4 would have ANDed.
	var rows []int
	for i, yps := range c.rYPos {
		if c.rX.Degree(i) > c.d2 && slices.ContainsFunc(yps, func(yp int32) bool { return yp >= 0 && c.colOf[yp] >= 0 }) {
			rows = append(rows, i)
			f.HX = append(f.HX, c.rX.Key(i))
		}
	}
	f.M1 = matrix.NewBitMatrix(len(rows), c.ncols)
	for row, i := range rows {
		for _, yp := range c.rYPos[i] {
			if yp >= 0 && c.colOf[yp] >= 0 {
				f.M1.Set(row, int(c.colOf[yp]))
			}
		}
	}
	return f
}
