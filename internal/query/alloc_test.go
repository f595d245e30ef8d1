package query

import (
	"context"
	"testing"

	"repro/internal/relation"
)

// bandRelation returns R(x, y) with d partners y = (x·7 + k) mod m for each
// x < n: every y is shared by about n·d/m keys, so a two-path over two such
// relations outputs many more rows than either input has keys.
func bandRelation(name string, n, d, m int) *relation.Relation {
	ps := make([]relation.Pair, 0, n*d)
	for x := 0; x < n; x++ {
		for k := 0; k < d; k++ {
			ps = append(ps, relation.Pair{X: int32(x), Y: int32((x*7 + k) % m)})
		}
	}
	return relation.FromPairs(name, ps)
}

// TestExecuteAllocsIndependentOfOutput guards the executor's flat row
// layout: the final node, the lone-producer pass-through and the head
// projection each write their rows into one backing array, so evaluating a
// query costs a number of allocations that does not grow with the rows it
// returns. A per-row allocation anywhere on the path would add thousands.
func TestExecuteAllocsIndependentOfOutput(t *testing.T) {
	// The slack admits the kernels' append-doubled output buffers, a few
	// allocations per doubling of the output; a per-row allocation would add
	// thousands.
	const slack = 24
	for _, src := range []string{
		"Q(x, z) :- R(x, y), S(y, z)",
		"Q(x, COUNT(z)) :- R(x, y), S(y, z)",
		"Q(x, z) :- R(x, y), S(y, z) WITH strategy=wcoj",
		"Q(x, COUNT(z)) :- R(x, y), S(y, z) WITH strategy=wcoj",
	} {
		measure := func(n int) (allocs float64, rows int) {
			rels := map[string]*relation.Relation{
				"R": bandRelation("R", n, 3, n/4),
				"S": bandRelation("S", n, 3, n/4).Swap(),
			}
			p, err := Prepare(src, MapResolver(rels))
			if err != nil {
				t.Fatalf("Prepare(%q): %v", src, err)
			}
			opts := ExecOptions{Workers: 1}
			res, err := p.Execute(context.Background(), opts)
			if err != nil {
				t.Fatalf("Execute(%q): %v", src, err)
			}
			allocs = testing.AllocsPerRun(5, func() {
				if _, err := p.Execute(context.Background(), opts); err != nil {
					t.Fatal(err)
				}
			})
			return allocs, len(res.Tuples)
		}
		smallAllocs, smallRows := measure(200)
		bigAllocs, bigRows := measure(1000)
		t.Logf("%q: %d rows in %.0f allocs, %d rows in %.0f allocs",
			src, smallRows, smallAllocs, bigRows, bigAllocs)
		if bigRows < 4*smallRows {
			t.Fatalf("%q: outputs %d and %d rows differ by less than 4×", src, smallRows, bigRows)
		}
		if bigAllocs > smallAllocs+slack {
			t.Errorf("%q: allocations grew from %.0f to %.0f (more than %d) while rows grew from %d to %d",
				src, smallAllocs, bigAllocs, slack, smallRows, bigRows)
		}
	}
}
