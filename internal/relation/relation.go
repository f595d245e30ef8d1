// Package relation implements the storage layer of the join-project engine:
// in-memory binary relations R(x,y) indexed by both columns.
//
// Following Section 5 of the paper ("Indexing relations"), every relation is
// stored once per index order: a CSR-style index keyed by x with sorted y
// lists, and the mirror index keyed by y with sorted x lists. Both are built
// in O(N log N) during preprocessing. The package also provides the linear
// preprocessing steps the algorithms assume: semi-join reduction (removing
// tuples that cannot contribute to the join) and exact full-join-size
// computation |OUT⋈| = Σ_y Π_i deg_i(y).
package relation

import (
	"fmt"
	"slices"
	"sort"
)

// Pair is a single tuple (X, Y) of a binary relation R(x,y).
type Pair struct {
	X, Y int32
}

// Index is a CSR-style index of a binary relation on one of its columns:
// sorted distinct keys, and for each key a sorted list of partner values.
type Index struct {
	keys []int32 // sorted distinct keys
	off  []int32 // len(keys)+1 offsets into vals
	vals []int32 // concatenated sorted partner lists
}

// NumKeys returns the number of distinct keys.
func (ix *Index) NumKeys() int { return len(ix.keys) }

// Key returns the i-th smallest key.
func (ix *Index) Key(i int) int32 { return ix.keys[i] }

// Keys returns the sorted distinct keys. Callers must not modify the slice.
func (ix *Index) Keys() []int32 { return ix.keys }

// List returns the sorted partner list of the i-th key (by position).
// Callers must not modify the returned slice.
func (ix *Index) List(i int) []int32 { return ix.vals[ix.off[i]:ix.off[i+1]] }

// Degree returns the length of the i-th key's partner list.
func (ix *Index) Degree(i int) int { return int(ix.off[i+1] - ix.off[i]) }

// Pos returns the position of key in the index, or -1 if absent.
func (ix *Index) Pos(key int32) int {
	i := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] >= key })
	if i < len(ix.keys) && ix.keys[i] == key {
		return i
	}
	return -1
}

// Lookup returns the sorted partner list for key, or nil if key is absent.
func (ix *Index) Lookup(key int32) []int32 {
	if i := ix.Pos(key); i >= 0 {
		return ix.List(i)
	}
	return nil
}

// MaxDegree returns the largest partner-list length, or 0 for an empty index.
func (ix *Index) MaxDegree() int {
	m := 0
	for i := range ix.keys {
		if d := ix.Degree(i); d > m {
			m = d
		}
	}
	return m
}

// Packed keys: a tuple (k, v) is one uint64 with k in the high half and v in
// the low half, each with its sign bit flipped so that unsigned word order is
// signed (k, v) order (MinInt32 packs to 0, MaxInt32 to 0xffffffff). One
// slices.Sort over the words is then a lexicographic tuple sort with no
// comparison callback, and swapping the halves re-keys the tuple on its other
// column. The k half is the index key and the v half its partner.

const signFlip = 1 << 31

func packKey(k, v int32) uint64 {
	return uint64(uint32(k)^signFlip)<<32 | uint64(uint32(v)^signFlip)
}

// keyOf and valOf unpack the high (index key) and low (partner) halves.
func keyOf(w uint64) int32 { return int32(uint32(w>>32) ^ signFlip) }
func valOf(w uint64) int32 { return int32(uint32(w) ^ signFlip) }

// packPairs packs ps keyed on x.
func packPairs(ps []Pair) []uint64 {
	ws := make([]uint64, len(ps))
	for i, p := range ps {
		ws[i] = packKey(p.X, p.Y)
	}
	return ws
}

// sortKeys sorts ws in place and drops duplicates.
func sortKeys(ws []uint64) []uint64 {
	slices.Sort(ws)
	return slices.Compact(ws)
}

// swapKeys re-keys every word on its other column and sorts ws again.
func swapKeys(ws []uint64) {
	for i, w := range ws {
		ws[i] = w<<32 | w>>32
	}
	slices.Sort(ws)
}

// buildIndex constructs an Index from packed keys sorted ascending with
// duplicates removed.
func buildIndex(ws []uint64) *Index {
	ix := &Index{}
	if len(ws) == 0 {
		ix.off = []int32{0}
		return ix
	}
	nk := 1
	for i := 1; i < len(ws); i++ {
		if ws[i]>>32 != ws[i-1]>>32 {
			nk++
		}
	}
	ix.keys = make([]int32, 0, nk)
	ix.off = make([]int32, 0, nk+1)
	ix.vals = make([]int32, len(ws))
	for i, w := range ws {
		if i == 0 || w>>32 != ws[i-1]>>32 {
			ix.keys = append(ix.keys, keyOf(w))
			ix.off = append(ix.off, int32(i))
		}
		ix.vals[i] = valOf(w)
	}
	ix.off = append(ix.off, int32(len(ws)))
	return ix
}

// Relation is an immutable, fully indexed binary relation R(x,y).
type Relation struct {
	name string
	n    int
	byX  *Index
	byY  *Index
}

// FromPairs builds a relation from tuples. Duplicate tuples are removed and
// both column indexes are built from one buffer of packed keys: a sort by
// (x, y) builds the X index, and swapping the halves in place and sorting
// again builds the Y index. The input slice is not retained.
func FromPairs(name string, ps []Pair) *Relation {
	return fromSortedKeys(name, sortKeys(packPairs(ps)))
}

// fromSortedKeys builds a relation from (x, y) packed keys sorted ascending
// with duplicates removed, reusing ws as the buffer of the mirror sort.
func fromSortedKeys(name string, ws []uint64) *Relation {
	byX := buildIndex(ws)
	swapKeys(ws)
	byY := buildIndex(ws)
	return &Relation{name: name, n: len(ws), byX: byX, byY: byY}
}

// ApplyDelta returns a new relation with added tuples inserted into and
// removed tuples deleted from r, rebuilding both column indexes by a linear
// merge of the existing sorted runs with the (small, sorted) delta — O(N +
// Δ log Δ) instead of FromPairs's full O(N log N) re-sort. This is the
// catalog's mutation fast path: under small update batches the rebuild cost
// is dominated by the copy, not by sorting. Tuples in added that are
// already present and tuples in removed that are absent are ignored; a
// tuple in both is removed.
func ApplyDelta(r *Relation, name string, added, removed []Pair) *Relation {
	add := sortKeys(packPairs(added))
	rem := sortKeys(packPairs(removed))
	mergedX := mergeRuns(r.byX, r.n, add, rem)
	byX := buildIndex(mergedX)
	swapKeys(add)
	swapKeys(rem)
	byY := buildIndex(mergeRuns(r.byY, r.n, add, rem))
	return &Relation{name: name, n: len(mergedX), byX: byX, byY: byY}
}

// sortPairs clones and sorts pairs by (x,y), removing duplicates.
func sortPairs(ps []Pair) []Pair {
	ws := sortKeys(packPairs(ps))
	out := make([]Pair, len(ws))
	for i, w := range ws {
		out[i] = Pair{X: keyOf(w), Y: valOf(w)}
	}
	return out
}

// pairLess orders pairs by (x,y).
func pairLess(a, b Pair) bool { return packKey(a.X, a.Y) < packKey(b.X, b.Y) }

// mergeRuns walks ix (n tuples) in key order, merging the added run in and
// skipping tuples in the removed run; both runs are packed keys in ix's
// orientation, sorted and duplicate-free. The output is the index's packed
// keys in order with duplicates (including add-of-present) dropped.
func mergeRuns(ix *Index, n int, added, removed []uint64) []uint64 {
	out := make([]uint64, 0, n+len(added))
	ai, ri := 0, 0
	push := func(w uint64) {
		// Drop tuples matched by the removed run.
		for ri < len(removed) && removed[ri] < w {
			ri++
		}
		if ri < len(removed) && removed[ri] == w {
			return
		}
		// Drop duplicates (an added tuple already present).
		if len(out) > 0 && out[len(out)-1] == w {
			return
		}
		out = append(out, w)
	}
	for i := 0; i < ix.NumKeys(); i++ {
		k := ix.Key(i)
		for _, v := range ix.List(i) {
			w := packKey(k, v)
			for ai < len(added) && added[ai] < w {
				push(added[ai])
				ai++
			}
			push(w)
		}
	}
	for ; ai < len(added); ai++ {
		push(added[ai])
	}
	return out
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Swap returns the relation with its columns exchanged: Swap()(a, b) holds
// iff r(b, a). Both orientations share the same underlying indexes, so this
// is O(1).
func (r *Relation) Swap() *Relation {
	return &Relation{name: r.name + "_swap", n: r.n, byX: r.byY, byY: r.byX}
}

// Size returns the number of tuples N.
func (r *Relation) Size() int { return r.n }

// ByX returns the index keyed on the first column.
func (r *Relation) ByX() *Index { return r.byX }

// ByY returns the index keyed on the second (join) column.
func (r *Relation) ByY() *Index { return r.byY }

// NumX returns |dom(x)| restricted to values present in the relation.
func (r *Relation) NumX() int { return r.byX.NumKeys() }

// NumY returns the number of distinct join values present.
func (r *Relation) NumY() int { return r.byY.NumKeys() }

// Contains reports whether tuple (x, y) is in the relation.
func (r *Relation) Contains(x, y int32) bool {
	list := r.byX.Lookup(x)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= y })
	return i < len(list) && list[i] == y
}

// Pairs re-materializes the tuple list in (x, y) order.
func (r *Relation) Pairs() []Pair {
	out := make([]Pair, 0, r.n)
	for i := 0; i < r.byX.NumKeys(); i++ {
		x := r.byX.Key(i)
		for _, y := range r.byX.List(i) {
			out = append(out, Pair{x, y})
		}
	}
	return out
}

// FilterX returns a new relation keeping only tuples whose x value satisfies
// keep. Used by the BSI batching path to restrict R to the constants of a
// query batch (Section 3.3).
func (r *Relation) FilterX(keep func(x int32) bool) *Relation {
	var ps []Pair
	for i := 0; i < r.byX.NumKeys(); i++ {
		x := r.byX.Key(i)
		if !keep(x) {
			continue
		}
		for _, y := range r.byX.List(i) {
			ps = append(ps, Pair{x, y})
		}
	}
	return FromPairs(r.name+"_filtered", ps)
}

// RestrictXSet returns a new relation keeping only tuples whose x value is in
// xs. xs need not be sorted.
func (r *Relation) RestrictXSet(xs []int32) *Relation {
	set := make(map[int32]struct{}, len(xs))
	for _, x := range xs {
		set[x] = struct{}{}
	}
	return r.FilterX(func(x int32) bool {
		_, ok := set[x]
		return ok
	})
}

// Stats summarizes a relation the way Table 2 of the paper does, viewing the
// relation as a family of sets: each x value is a set containing its y
// partners.
type Stats struct {
	Tuples     int // |R|
	NumSets    int // number of distinct x values
	DomainSize int // number of distinct y values
	AvgSetSize float64
	MinSetSize int
	MaxSetSize int
}

// Stats computes Table-2 style statistics.
func (r *Relation) Stats() Stats {
	s := Stats{Tuples: r.n, NumSets: r.NumX(), DomainSize: r.NumY()}
	if r.NumX() == 0 {
		return s
	}
	s.MinSetSize = r.byX.Degree(0)
	for i := 0; i < r.byX.NumKeys(); i++ {
		d := r.byX.Degree(i)
		if d < s.MinSetSize {
			s.MinSetSize = d
		}
		if d > s.MaxSetSize {
			s.MaxSetSize = d
		}
	}
	s.AvgSetSize = float64(r.n) / float64(r.NumX())
	return s
}

// String renders the stats as a Table-2 row.
func (s Stats) String() string {
	return fmt.Sprintf("|R|=%d sets=%d |dom|=%d avg=%.1f min=%d max=%d",
		s.Tuples, s.NumSets, s.DomainSize, s.AvgSetSize, s.MinSetSize, s.MaxSetSize)
}

// CommonYs returns the sorted join values present in every given relation.
func CommonYs(rels ...*Relation) []int32 {
	if len(rels) == 0 {
		return nil
	}
	// Start from the relation with the fewest distinct y values.
	min := 0
	for i, r := range rels {
		if r.NumY() < rels[min].NumY() {
			min = i
		}
	}
	base := rels[min].byY.Keys()
	out := make([]int32, 0, len(base))
	for _, y := range base {
		ok := true
		for i, r := range rels {
			if i == min {
				continue
			}
			if r.byY.Pos(y) < 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, y)
		}
	}
	return out
}

// Reduce performs the linear-time preprocessing step the paper assumes:
// it removes every tuple whose join value does not appear in all relations,
// so no remaining tuple is dangling. It returns new reduced relations.
func Reduce(rels ...*Relation) []*Relation {
	ys := CommonYs(rels...)
	ySet := make(map[int32]struct{}, len(ys))
	for _, y := range ys {
		ySet[y] = struct{}{}
	}
	out := make([]*Relation, len(rels))
	for i, r := range rels {
		var ps []Pair
		for j := 0; j < r.byY.NumKeys(); j++ {
			y := r.byY.Key(j)
			if _, ok := ySet[y]; !ok {
				continue
			}
			for _, x := range r.byY.List(j) {
				ps = append(ps, Pair{x, y})
			}
		}
		out[i] = FromPairs(r.name, ps)
	}
	return out
}

// FullJoinSize returns |OUT⋈| = Σ_y Π_i deg_i(y), the size of the full star
// join before projection. Computable in one pass over the y indexes.
func FullJoinSize(rels ...*Relation) int64 {
	ys := CommonYs(rels...)
	var total int64
	for _, y := range ys {
		prod := int64(1)
		for _, r := range rels {
			prod *= int64(len(r.byY.Lookup(y)))
			if prod < 0 { // overflow guard; clamp
				return int64(1) << 62
			}
		}
		total += prod
		if total < 0 {
			return int64(1) << 62
		}
	}
	return total
}

// DegreesX returns the multiset of x degrees (set sizes), unsorted.
func (r *Relation) DegreesX() []int {
	out := make([]int, r.byX.NumKeys())
	for i := range out {
		out[i] = r.byX.Degree(i)
	}
	return out
}

// DegreesY returns the multiset of y degrees, unsorted.
func (r *Relation) DegreesY() []int {
	out := make([]int, r.byY.NumKeys())
	for i := range out {
		out[i] = r.byY.Degree(i)
	}
	return out
}

// IntersectSorted intersects two ascending int32 slices, appending the
// result to dst and returning it. It switches between galloping and linear
// merge depending on the length ratio, mirroring the adaptive set
// intersections of WCOJ engines.
func IntersectSorted(dst, a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= 16*len(a) {
		// Galloping: binary-search each element of the short list.
		for _, v := range a {
			i := sort.Search(len(b), func(i int) bool { return b[i] >= v })
			if i < len(b) && b[i] == v {
				dst = append(dst, v)
			}
			b = b[i:]
			if len(b) == 0 {
				break
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectCount returns |a ∩ b| for ascending slices without materializing.
func IntersectCount(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	cnt := 0
	if len(b) >= 16*len(a) {
		for _, v := range a {
			i := sort.Search(len(b), func(i int) bool { return b[i] >= v })
			if i < len(b) && b[i] == v {
				cnt++
			}
			b = b[i:]
			if len(b) == 0 {
				break
			}
		}
		return cnt
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			cnt++
			i++
			j++
		}
	}
	return cnt
}

// ContainsSorted reports whether every element of sub (ascending) appears in
// sup (ascending) — the verification primitive of set containment joins.
func ContainsSorted(sup, sub []int32) bool {
	if len(sub) > len(sup) {
		return false
	}
	i := 0
	for _, v := range sub {
		for i < len(sup) && sup[i] < v {
			i++
		}
		if i >= len(sup) || sup[i] != v {
			return false
		}
		i++
	}
	return true
}
