package joinproject

import (
	"hash/maphash"
	"sync"

	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/relation"
)

// tupleSet is a striped-lock set of fixed-width byte keys, used for global
// deduplication of projected star tuples across parallel workers.
type tupleSet struct {
	seed   maphash.Seed
	shards [64]tupleShard
}

type tupleShard struct {
	mu sync.Mutex
	m  map[string]struct{}
}

func newTupleSet() *tupleSet {
	ts := &tupleSet{seed: maphash.MakeSeed()}
	for i := range ts.shards {
		ts.shards[i].m = make(map[string]struct{})
	}
	return ts
}

// insert adds key and reports whether it was new.
func (ts *tupleSet) insert(key []byte) bool {
	h := maphash.Bytes(ts.seed, key)
	sh := &ts.shards[h&63]
	sh.mu.Lock()
	_, ok := sh.m[string(key)]
	if !ok {
		sh.m[string(key)] = struct{}{}
	}
	sh.mu.Unlock()
	return !ok
}

func (ts *tupleSet) size() int {
	n := 0
	for i := range ts.shards {
		n += len(ts.shards[i].m)
	}
	return n
}

func packTuple(key []byte, xs []int32) []byte {
	key = key[:0]
	for _, v := range xs {
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return key
}

// starScratch is the per-worker tuple/key buffer pair of the star
// evaluation: every producer (light-enumeration chunk, combinatorial chunk,
// matrix-product row) checks one out for its lifetime, so the per-tuple hot
// path allocates nothing.
type starScratch struct {
	xs  []int32
	key []byte
}

var starScratchPool = sync.Pool{New: func() any { return new(starScratch) }}

func getStarScratch(k int) *starScratch {
	s := starScratchPool.Get().(*starScratch)
	if cap(s.xs) < k {
		s.xs = make([]int32, k)
		s.key = make([]byte, 0, 4*k)
	}
	s.xs = s.xs[:k]
	return s
}

func putStarScratch(s *starScratch) { starScratchPool.Put(s) }

// starCtx precomputes the per-relation degree information for Q★k.
type starCtx struct {
	rels   []*relation.Relation
	k      int
	d1, d2 int
	ys     []int32
	// yHeavyCount[i] = number of relations in which ys[i] has degree > Δ1.
	yHeavyCount []int8
	stop        func() bool // polled at block boundaries; nil = never stop
}

// newStarCtx partitions rels with opt's thresholds, which must be resolved.
func newStarCtx(rels []*relation.Relation, opt Options) *starCtx {
	c := &starCtx{rels: rels, k: len(rels), d1: opt.Delta1, d2: opt.Delta2, stop: opt.Stop}
	c.ys = relation.CommonYs(rels...)
	c.yHeavyCount = make([]int8, len(c.ys))
	for i, y := range c.ys {
		for _, r := range rels {
			if len(r.ByY().Lookup(y)) > c.d1 {
				c.yHeavyCount[i]++
			}
		}
	}
	return c
}

// heavyX reports whether value x is heavy (degree > Δ2) in relation j.
func (c *starCtx) heavyX(j int, x int32) bool {
	return len(c.rels[j].ByX().Lookup(x)) > c.d2
}

// enumerateLight visits every projected tuple that has a witness with at
// least one non-all-heavy tuple — steps (1) and (2) of the Section-3.2
// algorithm. emit receives a reused buffer, plus the chunk's scratch so
// consumers can pack keys without allocating.
func (c *starCtx) enumerateLight(workers int, emit func(sc *starScratch, xs []int32)) {
	par.ForChunks(len(c.ys), workers, func(lo, hi int) {
		sc := getStarScratch(c.k)
		defer putStarScratch(sc)
		xs := sc.xs
		lists := make([][]int32, c.k)
		lightPart := make([][]int32, c.k)
		heavyPart := make([][]int32, c.k)
		lightBuf := make([][]int32, c.k)
		heavyBuf := make([][]int32, c.k)
		for i := lo; i < hi; i++ {
			if c.stop != nil && i&63 == 0 && c.stop() {
				return
			}
			y := c.ys[i]
			ok := true
			for j, r := range c.rels {
				lists[j] = r.ByY().Lookup(y)
				if len(lists[j]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if c.yHeavyCount[i] < 2 {
				// No tuple at this y can be all-heavy (Rj⁺ needs a heavy y
				// in some other relation), so enumerate the full product.
				crossEmit(lists, xs, 0, func() { emit(sc, xs) })
				continue
			}
			// Split each list into light and heavy x values; enumerate all
			// combinations except heavy×heavy×...×heavy, which the matrix
			// step covers.
			for j := range c.rels {
				lightBuf[j] = lightBuf[j][:0]
				heavyBuf[j] = heavyBuf[j][:0]
				for _, x := range lists[j] {
					if c.heavyX(j, x) {
						heavyBuf[j] = append(heavyBuf[j], x)
					} else {
						lightBuf[j] = append(lightBuf[j], x)
					}
				}
				lightPart[j] = lightBuf[j]
				heavyPart[j] = heavyBuf[j]
			}
			// First-light-position decomposition: position p takes heavy
			// values before p, light at p, anything after p. Each
			// not-all-heavy combination is produced exactly once.
			for p := 0; p < c.k; p++ {
				if len(lightPart[p]) == 0 {
					continue
				}
				crossSegmented(heavyPart, lightPart, lists, xs, 0, p, func() { emit(sc, xs) })
			}
		}
	})
}

func crossEmit(lists [][]int32, xs []int32, depth int, f func()) {
	if depth == len(lists) {
		f()
		return
	}
	for _, v := range lists[depth] {
		xs[depth] = v
		crossEmit(lists, xs, depth+1, f)
	}
}

// crossSegmented enumerates heavy[0..p-1] × light[p] × full[p+1..k-1].
func crossSegmented(heavy, light, full [][]int32, xs []int32, depth, p int, f func()) {
	if depth == len(full) {
		f()
		return
	}
	var seg []int32
	switch {
	case depth < p:
		seg = heavy[depth]
	case depth == p:
		seg = light[depth]
	default:
		seg = full[depth]
	}
	if len(seg) == 0 {
		return
	}
	for _, v := range seg {
		xs[depth] = v
		crossSegmented(heavy, light, full, xs, depth+1, p, f)
	}
}

// buildGroupMatrix materializes the Section-3.2 matrix for relations
// [jlo, jhi): rows are distinct tuples of heavy x values co-occurring under
// some eligible heavy y, columns are those y values.
func (c *starCtx) buildGroupMatrix(jlo, jhi int, yCols map[int32]int) (rows [][]int32, bm *matrix.BitMatrix) {
	rowID := make(map[string]int)
	type cell struct{ row, col int }
	var cells []cell
	xs := make([]int32, jhi-jlo)
	heavyLists := make([][]int32, jhi-jlo)
	var key []byte
	for y, col := range yCols {
		ok := true
		for j := jlo; j < jhi; j++ {
			list := c.rels[j].ByY().Lookup(y)
			var hv []int32
			for _, x := range list {
				if c.heavyX(j, x) {
					hv = append(hv, x)
				}
			}
			if len(hv) == 0 {
				ok = false
				break
			}
			heavyLists[j-jlo] = hv
		}
		if !ok {
			continue
		}
		crossEmit(heavyLists, xs, 0, func() {
			key = packTuple(key, xs)
			id, seen := rowID[string(key)]
			if !seen {
				id = len(rows)
				rowID[string(key)] = id
				cp := make([]int32, len(xs))
				copy(cp, xs)
				rows = append(rows, cp)
			}
			cells = append(cells, cell{id, col})
		})
	}
	bm = matrix.NewBitMatrix(len(rows), len(yCols))
	for _, cl := range cells {
		bm.Set(cl.row, cl.col)
	}
	return rows, bm
}

// heavyProduct is step 3 of the Section-3.2 algorithm: the grouped matrix
// product V × Wᵀ over the y values heavy in at least two relations. visit
// receives each all-heavy tuple with its number of shared heavy-eligible y
// values, plus the scratch of the product row that produced it; it is called
// from multiple goroutines.
func (c *starCtx) heavyProduct(workers int, visit func(sc *starScratch, xs []int32, n int32)) {
	yCols := make(map[int32]int)
	for i, y := range c.ys {
		if c.yHeavyCount[i] >= 2 {
			yCols[y] = len(yCols)
		}
	}
	if len(yCols) == 0 {
		return
	}
	g := (c.k + 1) / 2
	rowsA, va := c.buildGroupMatrix(0, g, yCols)
	if len(rowsA) == 0 {
		return
	}
	rowsB, wb := c.buildGroupMatrix(g, c.k, yCols)
	if len(rowsB) == 0 {
		return
	}
	matrix.ForEachRowProductStop(va, wb, workers, c.stop, func(i int, counts []int32) {
		sc := getStarScratch(c.k)
		xs := sc.xs
		for j, n := range counts {
			if n == 0 {
				continue
			}
			copy(xs, rowsA[i])
			copy(xs[g:], rowsB[j])
			visit(sc, xs, n)
		}
		putStarScratch(sc)
	})
}

// runStar evaluates Q★k and streams each distinct projected tuple to emit
// (called from multiple goroutines; the tuple slice is owned by the callee).
// Under all-light thresholds step 3 finds no heavy y and the sweep is the
// combinatorial plan: the full join enumerated and deduplicated.
func (c *starCtx) runStar(workers int, emit func(xs []int32)) {
	dedup := newTupleSet()
	keyed := func(sc *starScratch, xs []int32) {
		// The scratch's key buffer is reused across every tuple the worker
		// produces; only genuinely new tuples allocate (the emitted copy).
		sc.key = packTuple(sc.key, xs)
		if dedup.insert(sc.key) {
			cp := make([]int32, len(xs))
			copy(cp, xs)
			emit(cp)
		}
	}
	// Step 1+2: everything with a light component.
	c.enumerateLight(workers, keyed)
	// Step 3: all-heavy tuples.
	c.heavyProduct(workers, func(sc *starScratch, xs []int32, _ int32) { keyed(sc, xs) })
}

// collectStar runs the star sweep on rels with strategy's thresholds and
// hands each distinct tuple to collect, one call at a time.
func collectStar(strategy string, rels []*relation.Relation, opt Options, collect func(xs []int32)) {
	if len(rels) == 0 {
		return
	}
	c := newStarCtx(rels, Thresholds(strategy, opt, true, rels...))
	var mu sync.Mutex
	c.runStar(opt.Workers, func(xs []int32) {
		mu.Lock()
		collect(xs)
		mu.Unlock()
	})
}

// starTuples is collectStar gathering the tuples into one slice.
func starTuples(strategy string, rels []*relation.Relation, opt Options) [][]int32 {
	var out [][]int32
	collectStar(strategy, rels, opt, func(xs []int32) { out = append(out, xs) })
	return out
}

// StarMM evaluates the projected star query π_{x1..xk}(R1 ⋈ ... ⋈ Rk) with
// the Section-3.2 algorithm and returns the distinct output tuples.
func StarMM(rels []*relation.Relation, opt Options) [][]int32 {
	return starTuples(StrategyMM, rels, opt)
}

// StarNonMM is the combinatorial baseline: full WCOJ enumeration of the star
// join followed by deduplication (the plan Lemma 2 underlies, without the
// matrix step), run as the Section-3.2 sweep with every value light.
func StarNonMM(rels []*relation.Relation, opt Options) [][]int32 {
	return starTuples(StrategyWCOJ, rels, opt)
}

// TupleCount is one projected star tuple with its witness count
// |{y : (xs[i], y) ∈ Ri ∀i}|.
type TupleCount struct {
	Xs    []int32
	Count int32
}

// StarMMCounts evaluates the star query with exact witness counts: the
// light categories contribute one witness per enumerated (y, tuple)
// combination, and the grouped matrix product contributes the count of
// shared heavy-eligible y values — the same witness-space partition
// argument as the 2-path counting variant.
func StarMMCounts(rels []*relation.Relation, opt Options) []TupleCount {
	if len(rels) == 0 {
		return nil
	}
	c := newStarCtx(rels, Thresholds(StrategyMM, opt, true, rels...))
	counts := make(map[string]int32)
	var mu sync.Mutex
	add := func(sc *starScratch, xs []int32, n int32) {
		sc.key = packTuple(sc.key, xs)
		mu.Lock()
		counts[string(sc.key)] += n
		mu.Unlock()
	}
	// Light categories: every enumerated combination is one witness.
	c.enumerateLight(opt.Workers, func(sc *starScratch, xs []int32) { add(sc, xs, 1) })
	// All-heavy witnesses via the grouped matrix product.
	c.heavyProduct(opt.Workers, add)
	out := make([]TupleCount, 0, len(counts))
	for key, n := range counts {
		xs := make([]int32, c.k)
		for i := range xs {
			b := []byte(key[4*i : 4*i+4])
			xs[i] = int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		out = append(out, TupleCount{Xs: xs, Count: n})
	}
	return out
}

// StarMMSize returns the number of distinct projected star tuples without
// collecting them.
func StarMMSize(rels []*relation.Relation, opt Options) int64 {
	var n int64
	collectStar(StrategyMM, rels, opt, func([]int32) { n++ })
	return n
}
