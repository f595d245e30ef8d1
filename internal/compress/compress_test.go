package compress

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/relation"
)

func randomRel(rng *rand.Rand, name string, n, xdom, ydom int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		x := int32(rng.Intn(xdom))
		y := int32(rng.Intn(ydom))
		if rng.Intn(3) == 0 {
			x = int32(rng.Intn(3))
		}
		if rng.Intn(3) == 0 {
			y = int32(rng.Intn(3))
		}
		ps[i] = relation.Pair{X: x, Y: y}
	}
	return relation.FromPairs(name, ps)
}

func brute(r, s *relation.Relation) map[[2]int32]bool {
	out := map[[2]int32]bool{}
	for _, rp := range r.Pairs() {
		for _, sp := range s.Pairs() {
			if rp.Y == sp.Y {
				out[[2]int32{rp.X, sp.X}] = true
			}
		}
	}
	return out
}

func TestViewMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, d := range []int{1, 2, 4, 100} {
		r := randomRel(rng, "R", 500, 50, 25)
		s := randomRel(rng, "S", 500, 50, 25)
		want := brute(r, s)
		v := Build(r, s, Options{Delta1: d, Delta2: d})
		got := map[[2]int32]bool{}
		v.Enumerate(func(x, z int32) {
			key := [2]int32{x, z}
			if got[key] {
				t.Fatalf("d=%d: pair %v enumerated twice", d, key)
			}
			got[key] = true
		})
		if len(got) != len(want) {
			t.Fatalf("d=%d: view has %d pairs, want %d", d, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("d=%d: missing %v", d, p)
			}
		}
		if v.Count() != int64(len(want)) {
			t.Fatalf("d=%d: Count=%d, want %d", d, v.Count(), len(want))
		}
	}
}

func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	r := randomRel(rng, "R", 400, 40, 20)
	s := randomRel(rng, "S", 400, 40, 20)
	want := brute(r, s)
	v := Build(r, s, Options{Delta1: 2, Delta2: 2})
	// All positives.
	for p := range want {
		if !v.Contains(p[0], p[1]) {
			t.Fatalf("Contains(%v) = false for output pair", p)
		}
	}
	// Random negatives.
	for i := 0; i < 500; i++ {
		x := int32(rng.Intn(60))
		z := int32(rng.Intn(60))
		if _, ok := want[[2]int32{x, z}]; !ok {
			if v.Contains(x, z) {
				t.Fatalf("Contains(%d,%d) = true for non-pair", x, z)
			}
		}
	}
}

func TestFactorizationSavesSpaceOnDense(t *testing.T) {
	// Community-style near-clique data: the heavy part dominates and the
	// factors should be much smaller than the materialized output.
	g := dataset.Community(30000, 8, 5)
	v := Build(g, g, Options{})
	st := v.Stats()
	if st.MaterializedPairs == 0 {
		t.Fatal("empty view on dense data")
	}
	t.Logf("light=%d heavy=%dx%d cols=%d compressed=%dB materialized=%d ratio=%.2f",
		st.LightPairs, st.HeavyRows, st.HeavyZRows, st.HeavyCols,
		st.CompressedBytes, st.MaterializedPairs, st.CompressionRatio())
	if st.CompressionRatio() < 1.0 {
		t.Fatalf("factorized view larger than materialization (ratio %.2f)", st.CompressionRatio())
	}
}

func TestEmptyView(t *testing.T) {
	e := relation.FromPairs("E", nil)
	v := Build(e, e, Options{Delta1: 1, Delta2: 1})
	if v.Count() != 0 {
		t.Fatal("empty view should have no pairs")
	}
	if v.Contains(1, 2) {
		t.Fatal("empty view contains nothing")
	}
}

func TestDisjointRelations(t *testing.T) {
	r := relation.FromPairs("R", []relation.Pair{{X: 1, Y: 1}})
	s := relation.FromPairs("S", []relation.Pair{{X: 2, Y: 99}})
	v := Build(r, s, Options{Delta1: 1, Delta2: 1})
	if v.Count() != 0 {
		t.Fatal("disjoint join should be empty")
	}
}

// Property: the view equals the brute-force join-project for random
// instances and thresholds, and Contains agrees with Enumerate.
func TestQuickViewCorrect(t *testing.T) {
	f := func(seed int64, d1raw, d2raw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, "R", 1+rng.Intn(200), 1+rng.Intn(30), 1+rng.Intn(15))
		s := randomRel(rng, "S", 1+rng.Intn(200), 1+rng.Intn(30), 1+rng.Intn(15))
		v := Build(r, s, Options{Delta1: 1 + int(d1raw%8), Delta2: 1 + int(d2raw%8), Workers: 2})
		want := brute(r, s)
		got := map[[2]int32]bool{}
		v.Enumerate(func(x, z int32) { got[[2]int32{x, z}] = true })
		if len(got) != len(want) {
			return false
		}
		for p := range want {
			if !got[p] || !v.Contains(p[0], p[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the view's partition is Algorithm 1's, recomputed by brute force
// from the degree definitions. With Δ1 = Δ2 = Δ: LightPairs counts the
// distinct (x, z) with a witness y where deg_S(y) ≤ Δ, deg_R(x) ≤ Δ or
// deg_S(z) ≤ Δ; HeavyCols counts the y with deg_S(y) > Δ; HeavyRows and
// HeavyZRows count the x (in R) and z (in S) of degree > Δ with a heavy-y
// neighbour; and a heavy x and heavy z rows intersect iff they share a
// heavy y.
func TestQuickFactorizationMatchesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, "R", 1+rng.Intn(200), 1+rng.Intn(30), 1+rng.Intn(15))
		s := randomRel(rng, "S", 1+rng.Intn(200), 1+rng.Intn(30), 1+rng.Intn(15))
		degR, degSz, degSy := map[int32]int{}, map[int32]int{}, map[int32]int{}
		for _, p := range r.Pairs() {
			degR[p.X]++
		}
		for _, p := range s.Pairs() {
			degSz[p.X]++
			degSy[p.Y]++
		}
		for _, d := range []int{1, 2, 4, r.Size() + s.Size() + 1} {
			heavyY := func(y int32) bool { return degSy[y] > d }
			light := map[[2]int32]bool{}
			shared := map[[2]int32]bool{} // heavy x, heavy z sharing a heavy y
			for _, rp := range r.Pairs() {
				for _, sp := range s.Pairs() {
					if rp.Y != sp.Y {
						continue
					}
					if !heavyY(rp.Y) || degR[rp.X] <= d || degSz[sp.X] <= d {
						light[[2]int32{rp.X, sp.X}] = true
					} else {
						shared[[2]int32{rp.X, sp.X}] = true
					}
				}
			}
			heavyRows := func(pairs []relation.Pair, deg map[int32]int) []int32 {
				var out []int32
				for _, p := range pairs {
					if deg[p.X] > d && heavyY(p.Y) && !slices.Contains(out, p.X) {
						out = append(out, p.X)
					}
				}
				slices.Sort(out)
				return out
			}
			hx, hz := heavyRows(r.Pairs(), degR), heavyRows(s.Pairs(), degSz)
			cols := 0
			for y := range degSy {
				if heavyY(y) {
					cols++
				}
			}
			v := Build(r, s, Options{Delta1: d, Delta2: d, Workers: 2})
			st := v.Stats()
			if st.LightPairs != int64(len(light)) || st.HeavyCols != cols ||
				!slices.Equal(v.hx, hx) || !slices.Equal(v.hz, hz) ||
				st.HeavyRows != len(hx) || st.HeavyZRows != len(hz) {
				t.Logf("seed %d Δ=%d: stats %+v hx %v hz %v; want light %d cols %d hx %v hz %v",
					seed, d, st, v.hx, v.hz, len(light), cols, hx, hz)
				return false
			}
			for i, x := range hx {
				for j, z := range hz {
					if v.m1.Row(i).Intersects(v.m2.Row(j)) != shared[[2]int32{x, z}] {
						t.Logf("seed %d Δ=%d: factor rows of (%d, %d) disagree with the shared heavy ys", seed, d, x, z)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
