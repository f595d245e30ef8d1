// Package compress implements the compressed join-project view motivated by
// the paper's graph-analytics application (Section 1 and [35]): a succinct
// representation of V(x, z) = π_{x,z}(R(x,y) ⋈ S(z,y)) that can be queried
// without materializing the full result.
//
// The representation is Algorithm 1's partition as internal/joinproject
// computes it (joinproject.Factorize runs the 2-path sweep with the
// all-heavy residual left unmultiplied):
//
//   - the light part of the output (pairs with a light-category witness) is
//     stored explicitly, grouped by x with sorted z lists (CSR layout);
//   - the heavy part is NOT materialized: it is kept as the two bit-packed
//     factor matrices M1 (heavy x × heavy y) and M2 (heavy z × heavy y),
//     whose boolean product encodes all heavy-witness pairs.
//
// This realizes the paper's observation that "matrix multiplication is
// space efficient due to its implicit factorization of the output formed by
// heavy values": the factors hold up to Θ(h²) pairs in O(h·|heavy y|/64)
// words. Membership queries cost O(log n + |heavy y|/64); enumeration
// streams the product row by row. Compared with the heuristic compression
// of [35], construction needs no tuning and inherits Algorithm 1's runtime
// guarantee.
package compress

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/joinproject"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/relation"
)

// View is a compressed join-project result.
type View struct {
	// Explicit light pairs: CSR over x.
	xs  []int32 // sorted distinct x values with ≥1 light-category pair
	off []int32
	zs  []int32 // concatenated sorted z lists

	// Heavy factorization: row i of m1 is heavy-x hx[i]'s heavy-y bitset;
	// row j of m2 is heavy-z hz[j]'s heavy-y bitset. hx and hz ascend.
	hx, hz []int32
	m1, m2 *matrix.BitMatrix

	lightPairs int64
}

// Options configures view construction.
type Options struct {
	// Delta1/Delta2 override the partition thresholds (0: closed-form).
	Delta1, Delta2 int
	// Workers bounds construction parallelism.
	Workers int
}

// Build constructs the compressed view of π_{x,z}(R ⋈ S).
func Build(r, s *relation.Relation, opt Options) *View {
	slots := make([][][2]int32, par.Workers(opt.Workers))
	f := joinproject.Factorize(r, s, joinproject.Options{Delta1: opt.Delta1, Delta2: opt.Delta2, Workers: opt.Workers},
		func(w int, x, z int32) { slots[w] = append(slots[w], [2]int32{x, z}) })
	v := &View{hx: f.HX, hz: f.HZ, m1: f.M1, m2: f.M2}

	// Explicit part: the distinct light-category pairs, sorted into CSR.
	pairs := slices.Concat(slots...)
	slices.SortFunc(pairs, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for i, p := range pairs {
		if i == 0 || p[0] != pairs[i-1][0] {
			v.xs = append(v.xs, p[0])
			v.off = append(v.off, int32(i))
		}
		v.zs = append(v.zs, p[1])
	}
	v.off = append(v.off, int32(len(pairs)))
	v.lightPairs = int64(len(pairs))
	return v
}

// lightList returns the explicit z list for x, or nil.
func (v *View) lightList(x int32) []int32 {
	i := sort.Search(len(v.xs), func(i int) bool { return v.xs[i] >= x })
	if i < len(v.xs) && v.xs[i] == x {
		return v.zs[v.off[i]:v.off[i+1]]
	}
	return nil
}

// Contains reports whether (x, z) is in the view — i.e. whether x and z
// share at least one y witness.
func (v *View) Contains(x, z int32) bool {
	list := v.lightList(x)
	j := sort.Search(len(list), func(i int) bool { return list[i] >= z })
	if j < len(list) && list[j] == z {
		return true
	}
	i, ok := slices.BinarySearch(v.hx, x)
	if !ok {
		return false
	}
	k, ok := slices.BinarySearch(v.hz, z)
	if !ok {
		return false
	}
	return v.m1.Row(i).Intersects(v.m2.Row(k))
}

// Enumerate streams every distinct pair of the view. Pairs present in both
// the explicit part and the factorization are emitted once.
func (v *View) Enumerate(emit func(x, z int32)) {
	for i, x := range v.xs {
		for _, z := range v.zs[v.off[i]:v.off[i+1]] {
			emit(x, z)
		}
	}
	for i, x := range v.hx {
		light := v.lightList(x)
		row := v.m1.Row(i)
		for j, z := range v.hz {
			if !row.Intersects(v.m2.Row(j)) {
				continue
			}
			k := sort.Search(len(light), func(a int) bool { return light[a] >= z })
			if k < len(light) && light[k] == z {
				continue // already emitted from the explicit part
			}
			emit(x, z)
		}
	}
}

// Count returns the number of distinct pairs in the view.
func (v *View) Count() int64 {
	var n int64
	v.Enumerate(func(_, _ int32) { n++ })
	return n
}

// Stats reports the space accounting of the compressed representation.
type Stats struct {
	LightPairs        int64 // explicitly stored pairs
	HeavyRows         int   // rows of M1
	HeavyCols         int   // heavy y columns
	HeavyZRows        int   // rows of M2
	CompressedBytes   int64
	MaterializedPairs int64 // what full materialization would store
}

// Stats computes the view's space statistics. MaterializedPairs enumerates
// the view, so it costs one full enumeration.
func (v *View) Stats() Stats {
	st := Stats{
		LightPairs: v.lightPairs,
		HeavyRows:  v.m1.Rows,
		HeavyCols:  v.m1.Cols,
		HeavyZRows: v.m2.Rows,
	}
	rowWords := int64((v.m1.Cols + 63) / 64)
	st.CompressedBytes = 4*int64(len(v.zs)+len(v.xs)+len(v.off)) +
		8*rowWords*int64(v.m1.Rows+v.m2.Rows) +
		4*int64(len(v.hx)+len(v.hz))
	st.MaterializedPairs = v.Count()
	return st
}

// CompressionRatio returns materialized bytes (8 per pair) over compressed
// bytes — > 1 means the factorization saves space.
func (s Stats) CompressionRatio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(8*s.MaterializedPairs) / float64(s.CompressedBytes)
}
