package matrix

// DefaultStrassenCutoff is the square dimension below which Strassen
// recursion hands off to the blocked classical kernel. Below this size the
// seven-multiplications saving is dominated by the O(n²) additions.
const DefaultStrassenCutoff = 128

// MulStrassen multiplies two matrices using Strassen's algorithm
// (ω = log₂7 ≈ 2.807), the paper's "fast matrix multiplication" stand-in.
// Operands of any shape are padded to the enclosing power-of-two square;
// cutoff ≤ 0 selects DefaultStrassenCutoff.
func MulStrassen(a, b *Int32, cutoff int) *Int32 {
	checkMulShapes(a, b)
	if cutoff <= 0 {
		cutoff = DefaultStrassenCutoff
	}
	n := nextPow2(max3(a.Rows, a.Cols, b.Cols))
	if n <= cutoff {
		return MulBlocked(a, b)
	}
	pa := padTo(a, n)
	pb := padTo(b, n)
	pc := strassenSquare(pa, pb, cutoff)
	return cropTo(pc, a.Rows, b.Cols)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func padTo(m *Int32, n int) *Int32 {
	if m.Rows == n && m.Cols == n {
		return m
	}
	p := NewInt32(n, n)
	for i := 0; i < m.Rows; i++ {
		copy(p.Row(i)[:m.Cols], m.Row(i))
	}
	return p
}

func cropTo(m *Int32, rows, cols int) *Int32 {
	if m.Rows == rows && m.Cols == cols {
		return m
	}
	c := NewInt32(rows, cols)
	for i := 0; i < rows; i++ {
		copy(c.Row(i), m.Row(i)[:cols])
	}
	return c
}

func addInto(dst, a, b *Int32) {
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

func subInto(dst, a, b *Int32) {
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
}

// quadrant extracts the (qi, qj) half-size quadrant of a 2n×2n matrix.
func quadrant(m *Int32, qi, qj, h int) *Int32 {
	q := NewInt32(h, h)
	for i := 0; i < h; i++ {
		copy(q.Row(i), m.Row(qi*h + i)[qj*h:qj*h+h])
	}
	return q
}

func strassenSquare(a, b *Int32, cutoff int) *Int32 {
	n := a.Rows
	if n <= cutoff {
		return MulBlocked(a, b)
	}
	h := n / 2
	a11, a12 := quadrant(a, 0, 0, h), quadrant(a, 0, 1, h)
	a21, a22 := quadrant(a, 1, 0, h), quadrant(a, 1, 1, h)
	b11, b12 := quadrant(b, 0, 0, h), quadrant(b, 0, 1, h)
	b21, b22 := quadrant(b, 1, 0, h), quadrant(b, 1, 1, h)

	t1, t2 := NewInt32(h, h), NewInt32(h, h)

	addInto(t1, a11, a22)
	addInto(t2, b11, b22)
	m1 := strassenSquare(t1, t2, cutoff)

	addInto(t1, a21, a22)
	m2 := strassenSquare(t1, b11, cutoff)

	subInto(t2, b12, b22)
	m3 := strassenSquare(a11, t2, cutoff)

	subInto(t2, b21, b11)
	m4 := strassenSquare(a22, t2, cutoff)

	addInto(t1, a11, a12)
	m5 := strassenSquare(t1, b22, cutoff)

	subInto(t1, a21, a11)
	addInto(t2, b11, b12)
	m6 := strassenSquare(t1, t2, cutoff)

	subInto(t1, a12, a22)
	addInto(t2, b21, b22)
	m7 := strassenSquare(t1, t2, cutoff)

	c := NewInt32(n, n)
	for i := 0; i < h; i++ {
		c11 := c.Row(i)[:h]
		c12 := c.Row(i)[h:]
		c21 := c.Row(h + i)[:h]
		c22 := c.Row(h + i)[h:]
		r1, r2 := m1.Row(i), m2.Row(i)
		r3, r4 := m3.Row(i), m4.Row(i)
		r5, r6 := m5.Row(i), m6.Row(i)
		r7 := m7.Row(i)
		for j := 0; j < h; j++ {
			c11[j] = r1[j] + r4[j] - r5[j] + r7[j]
			c12[j] = r3[j] + r5[j]
			c21[j] = r2[j] + r4[j]
			c22[j] = r1[j] - r2[j] + r3[j] + r6[j]
		}
	}
	return c
}
