package matrix

import "repro/internal/par"

// This file preserves the original memory-naive kernels as unexported
// correctness oracles. The differential tests in diff_test.go and
// matrix_test.go pit the exported kernels of bitmat.go, dense.go,
// strassen.go and rect.go against these reference implementations on
// randomized shapes. Do not optimize anything here — simplicity is the
// point.

// mulNaive computes a×b with the textbook triple loop.
func mulNaive(a, b *Int32) *Int32 {
	checkMulShapes(a, b)
	c := NewInt32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s int32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// mulBitCountNaive is the original row-at-a-time count product: every output
// row streams the entire Bᵀ operand.
func mulBitCountNaive(a, bT *BitMatrix, workers int) *Int32 {
	if a.Cols != bT.Cols {
		panic("matrix: bit product dimension mismatch")
	}
	c := NewInt32(a.Rows, bT.Rows)
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ra := a.RowWords(i)
			crow := c.Row(i)
			for j := 0; j < bT.Rows; j++ {
				crow[j] = int32(andCountWords(ra, bT.RowWords(j)))
			}
		}
	})
	return c
}

// forEachRowProductNaive is the original streaming variant with a per-worker
// make of the counts buffer.
func forEachRowProductNaive(a, bT *BitMatrix, workers int, fn func(i int, counts []int32)) {
	if a.Cols != bT.Cols {
		panic("matrix: bit product dimension mismatch")
	}
	par.ForChunks(a.Rows, workers, func(lo, hi int) {
		counts := make([]int32, bT.Rows)
		for i := lo; i < hi; i++ {
			ra := a.RowWords(i)
			for j := 0; j < bT.Rows; j++ {
				counts[j] = int32(andCountWords(ra, bT.RowWords(j)))
			}
			fn(i, counts)
		}
	})
}
