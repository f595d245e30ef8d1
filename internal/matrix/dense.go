// Package matrix implements the matrix-multiplication substrate of the
// join-project engine (Section 2.2 of the paper).
//
// The paper's prototype delegates to Eigen/Intel MKL. This package provides
// the pure-Go equivalents:
//
//   - a dense row-major int32 matrix with a cache-friendly ikj kernel,
//   - a bit-packed boolean matrix whose product-with-counts kernel
//     (64-bit AND + POPCNT) plays the role MKL's vectorized SGEMM plays in
//     the paper,
//   - Strassen's algorithm as the "fast matrix multiplication" (ω ≈ 2.807)
//     building block,
//   - the Lemma-1 rectangular multiply that decomposes a U×V by V×W product
//     into β×β square blocks (β = min{U,V,W}),
//   - a calibrated cost model M̂(u,v,w,co) used by the Section-5 optimizer.
package matrix

import "fmt"

// Int32 is a dense row-major matrix of int32 entries. In join processing the
// entries are witness counts, which fit comfortably in int32 for the scales
// the optimizer admits.
type Int32 struct {
	Rows, Cols int
	Data       []int32 // len Rows*Cols, row-major
}

// NewInt32 allocates a zeroed Rows×Cols matrix.
func NewInt32(rows, cols int) *Int32 {
	return &Int32{Rows: rows, Cols: cols, Data: make([]int32, rows*cols)}
}

// At returns the (i, j) entry.
func (m *Int32) At(i, j int) int32 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Int32) Set(i, j int, v int32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Int32) Row(i int) []int32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Equal reports whether m and o have identical shape and entries.
func (m *Int32) Equal(o *Int32) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// Transpose returns mᵀ.
func (m *Int32) Transpose() *Int32 {
	t := NewInt32(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// String renders small matrices for debugging and test failure messages.
func (m *Int32) String() string {
	s := fmt.Sprintf("Int32(%dx%d)", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		s += " ["
		for i := 0; i < m.Rows; i++ {
			s += fmt.Sprintf("%v", m.Row(i))
		}
		s += "]"
	}
	return s
}

func checkMulShapes(a, b *Int32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// mulBlockedInto accumulates a×b into c for rows [rlo, rhi) of a, using the
// ikj loop order with a zero-skip. ikj streams rows of b and c sequentially,
// which is the cache-friendly order for row-major storage, and the zero-skip
// makes the kernel cheap on the sparse-ish 0/1 matrices join processing
// produces.
func mulBlockedInto(c, a, b *Int32, rlo, rhi int) {
	n, w := a.Cols, b.Cols
	for i := rlo; i < rhi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < n; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*w : (k+1)*w]
			if av == 1 {
				for j, bv := range brow {
					crow[j] += bv
				}
				continue
			}
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MulBlocked computes a×b with the cache-friendly single-threaded kernel.
func MulBlocked(a, b *Int32) *Int32 {
	checkMulShapes(a, b)
	c := NewInt32(a.Rows, b.Cols)
	mulBlockedInto(c, a, b, 0, a.Rows)
	return c
}
