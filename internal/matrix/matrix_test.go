package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomInt32(rng *rand.Rand, rows, cols, maxv int) *Int32 {
	m := NewInt32(rows, cols)
	for i := range m.Data {
		m.Data[i] = int32(rng.Intn(maxv))
	}
	return m
}

func TestMulBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 65}, {64, 1, 64}}
	for _, sh := range shapes {
		a := randomInt32(rng, sh[0], sh[1], 5)
		b := randomInt32(rng, sh[1], sh[2], 5)
		want := mulNaive(a, b)
		if got := MulBlocked(a, b); !got.Equal(want) {
			t.Fatalf("shape %v: blocked != naive", sh)
		}
	}
}

func TestMulStrassenMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][3]int{{4, 4, 4}, {8, 8, 8}, {17, 23, 9}, {64, 64, 64}, {100, 50, 75}}
	for _, sh := range shapes {
		a := randomInt32(rng, sh[0], sh[1], 4)
		b := randomInt32(rng, sh[1], sh[2], 4)
		want := mulNaive(a, b)
		if got := MulStrassen(a, b, 4); !got.Equal(want) {
			t.Fatalf("shape %v: strassen != naive", sh)
		}
	}
}

func TestMulStrassenNegativeEntries(t *testing.T) {
	a := NewInt32(3, 3)
	b := NewInt32(3, 3)
	vals := []int32{-2, 5, -7, 3, 0, 1, -1, 4, 2}
	copy(a.Data, vals)
	copy(b.Data, []int32{1, -1, 2, 0, 3, -4, 5, 6, -2})
	want := mulNaive(a, b)
	if got := MulStrassen(a, b, 2); !got.Equal(want) {
		t.Fatalf("strassen with negatives: got %v want %v", got, want)
	}
}

func TestMulRectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Shapes chosen so β varies which operand dimension is smallest,
	// with a tiny cutoff to force the block decomposition path.
	shapes := [][3]int{{10, 40, 12}, {40, 10, 36}, {12, 36, 10}, {9, 9, 9}, {30, 30, 30}}
	for _, sh := range shapes {
		a := randomInt32(rng, sh[0], sh[1], 3)
		b := randomInt32(rng, sh[1], sh[2], 3)
		want := mulNaive(a, b)
		if got := MulRect(a, b, 4); !got.Equal(want) {
			t.Fatalf("shape %v: rect != naive", sh)
		}
	}
}

func TestMulRectEmpty(t *testing.T) {
	a := NewInt32(0, 5)
	b := NewInt32(5, 3)
	c := MulRect(a, b, 0)
	if c.Rows != 0 || c.Cols != 3 {
		t.Fatalf("empty rect product shape %dx%d", c.Rows, c.Cols)
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomInt32(rng, 7, 13, 10)
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !a.Transpose().Transpose().Equal(a) {
		t.Fatal("double transpose != identity")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MulBlocked(NewInt32(2, 3), NewInt32(4, 2))
}

func randomBitMatrix(rng *rand.Rand, rows, cols int, density float64) *BitMatrix {
	m := NewBitMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				m.Set(i, j)
			}
		}
	}
	return m
}

func TestBitMatrixSetTest(t *testing.T) {
	m := NewBitMatrix(3, 130)
	m.Set(0, 0)
	m.Set(1, 64)
	m.Set(2, 129)
	if !m.Test(0, 0) || !m.Test(1, 64) || !m.Test(2, 129) {
		t.Fatal("set bits not readable")
	}
	if m.Test(0, 1) || m.Test(1, 63) || m.Test(2, 128) {
		t.Fatal("unset bits read as set")
	}
}

// denseOf expands a bit matrix into a dense 0/1 int32 matrix.
func denseOf(m *BitMatrix) *Int32 {
	d := NewInt32(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Test(i, j) {
				d.Set(i, j, 1)
			}
		}
	}
	return d
}

func TestMulBitCountMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		u, v, w := 1+rng.Intn(20), 1+rng.Intn(200), 1+rng.Intn(20)
		a := randomBitMatrix(rng, u, v, 0.3)
		bT := randomBitMatrix(rng, w, v, 0.3)
		got := MulBitCount(a, bT, 1+rng.Intn(4))
		want := MulBlocked(denseOf(a), denseOf(bT).Transpose())
		if !got.Equal(want) {
			t.Fatalf("trial %d (%d,%d,%d): bit count product != dense product", trial, u, v, w)
		}
	}
}

func TestForEachRowProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomBitMatrix(rng, 31, 130, 0.25)
	bT := randomBitMatrix(rng, 11, 130, 0.25)
	want := MulBitCount(a, bT, 1)
	got := NewInt32(31, 11)
	ForEachRowProduct(a, bT, 4, func(i int, counts []int32) {
		copy(got.Row(i), counts)
	})
	if !got.Equal(want) {
		t.Fatal("ForEachRowProduct disagrees with MulBitCount")
	}
}

func TestRowViewSharesStorage(t *testing.T) {
	m := NewBitMatrix(2, 70)
	row := m.Row(1)
	row.Set(65)
	if !m.Test(1, 65) {
		t.Fatal("Row view does not share storage")
	}
	if row.AndCount(m.Row(1)) != 1 {
		t.Fatal("row self-intersection != 1")
	}
}

// Property: matrix multiplication distributes over addition,
// (A+B)C = AC + BC, for the blocked kernel.
func TestQuickDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(12)
		p := 1 + rng.Intn(12)
		a := randomInt32(rng, n, m, 6)
		b := randomInt32(rng, n, m, 6)
		c := randomInt32(rng, m, p, 6)
		sum := NewInt32(n, m)
		addInto(sum, a, b)
		left := MulBlocked(sum, c)
		ac := MulBlocked(a, c)
		bc := MulBlocked(b, c)
		right := NewInt32(n, p)
		addInto(right, ac, bc)
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: all three multiply implementations agree with the naive oracle
// on random instances.
func TestQuickKernelsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := 1 + rng.Intn(24)
		v := 1 + rng.Intn(24)
		w := 1 + rng.Intn(24)
		a := randomInt32(rng, u, v, 4)
		b := randomInt32(rng, v, w, 4)
		want := mulNaive(a, b)
		return MulBlocked(a, b).Equal(want) &&
			MulStrassen(a, b, 4).Equal(want) &&
			MulRect(a, b, 4).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelMonotone(t *testing.T) {
	cm := DefaultCostModel()
	small := cm.EstimateMul(100, 1000, 100, 1)
	big := cm.EstimateMul(1000, 1000, 1000, 1)
	if small <= 0 || big <= small {
		t.Fatalf("cost model not monotone: small=%v big=%v", small, big)
	}
	par := cm.EstimateMul(1000, 1000, 1000, 4)
	if par >= big {
		// More cores must not increase estimated time.
		t.Fatalf("4-core estimate %v not below 1-core %v", par, big)
	}
	if cm.EstimateConstruct(100, 100, 100) <= 0 {
		t.Fatal("construction estimate should be positive")
	}
	if cm.EstimateMul(0, 10, 10, 1) != 0 {
		t.Fatal("degenerate estimate should be 0")
	}
}

func TestBuildTable(t *testing.T) {
	tab := BuildTable([]int{64, 128}, []int{1, 2})
	if len(tab.Entries) != 4 {
		t.Fatalf("table entries = %d, want 4", len(tab.Entries))
	}
	for k, d := range tab.Entries {
		if d <= 0 {
			t.Fatalf("entry %v = %v, want > 0", k, d)
		}
	}
}

func BenchmarkMulBlocked256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randomInt32(rng, 256, 256, 2)
	y := randomInt32(rng, 256, 256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulBlocked(x, y)
	}
}

func BenchmarkMulBitCount1024(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randomBitMatrix(rng, 1024, 1024, 0.2)
	y := randomBitMatrix(rng, 1024, 1024, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulBitCount(x, y, 0)
	}
}
