package main

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"strings"

	"repro/internal/relation"
)

// The reference evaluator answers the read workloads' queries without the
// engine: its own parser and a hash join that projects away each variable as
// soon as no later atom or head term needs it. It is slow and simple on
// purpose; the benchmark compares every response against its answers.

type refAtom struct {
	rel  string
	vars [2]string
}

type refQuery struct {
	head  []string // variable per head term
	count int      // head position of COUNT(v), or -1
	atoms []refAtom
}

var (
	refHeadRe = regexp.MustCompile(`^\s*\w+\s*\((.*)\)\s*$`)
	refAtomRe = regexp.MustCompile(`(\w+)\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)`)
	refCount  = regexp.MustCompile(`^COUNT\s*\(\s*(\w+)\s*\)$`)
)

// parseRef parses the Datalog subset the workloads use: a head of variables
// and at most one COUNT(v), a body of binary atoms, and an optional WITH
// clause, which only hints the plan and so is ignored.
func parseRef(src string) (*refQuery, error) {
	if i := strings.Index(src, " WITH "); i >= 0 {
		src = src[:i]
	}
	headSrc, body, ok := strings.Cut(src, ":-")
	if !ok {
		return nil, fmt.Errorf("reference: no ':-' in %q", src)
	}
	m := refHeadRe.FindStringSubmatch(headSrc)
	if m == nil {
		return nil, fmt.Errorf("reference: bad head in %q", src)
	}
	q := &refQuery{count: -1}
	for i, term := range strings.Split(m[1], ",") {
		term = strings.TrimSpace(term)
		if c := refCount.FindStringSubmatch(term); c != nil {
			q.count = i
			term = c[1]
		}
		q.head = append(q.head, term)
	}
	for _, a := range refAtomRe.FindAllStringSubmatch(body, -1) {
		q.atoms = append(q.atoms, refAtom{rel: a[1], vars: [2]string{a[2], a[3]}})
	}
	if len(q.atoms) == 0 {
		return nil, fmt.Errorf("reference: no atoms in %q", src)
	}
	return q, nil
}

// refTable is a set of distinct rows over named columns.
type refTable struct {
	cols []string
	rows [][]int32
}

func (t *refTable) col(v string) int {
	for i, c := range t.cols {
		if c == v {
			return i
		}
	}
	return -1
}

// evalRef evaluates src over rels and returns its distinct answer tuples in
// head order.
func evalRef(src string, rels map[string][]relation.Pair) ([][]int64, error) {
	q, err := parseRef(src)
	if err != nil {
		return nil, err
	}
	cur := &refTable{rows: [][]int32{{}}}
	left := append([]refAtom(nil), q.atoms...)
	for len(left) > 0 {
		// Prefer an atom sharing a variable with what is bound, so no step
		// is a cross product unless the query itself is one.
		pick := 0
		for i, a := range left {
			if cur.col(a.vars[0]) >= 0 || cur.col(a.vars[1]) >= 0 {
				pick = i
				break
			}
		}
		a := left[pick]
		left = append(left[:pick], left[pick+1:]...)
		pairs, ok := rels[a.rel]
		if !ok {
			return nil, fmt.Errorf("reference: unknown relation %q", a.rel)
		}
		cur = joinAtom(cur, a, pairs, neededVars(q, left))
	}
	return projectRef(q, cur), nil
}

// neededVars is the set of variables the head or a remaining atom uses.
func neededVars(q *refQuery, left []refAtom) map[string]bool {
	need := map[string]bool{}
	for _, h := range q.head {
		need[h] = true
	}
	for _, a := range left {
		need[a.vars[0]], need[a.vars[1]] = true, true
	}
	return need
}

// joinAtom joins cur with one binary atom and keeps only the needed columns,
// deduplicated. A new variable nobody needs later is only checked for
// existence, never enumerated.
func joinAtom(cur *refTable, a refAtom, pairs []relation.Pair, need map[string]bool) *refTable {
	type key [2]int32
	b0, b1 := cur.col(a.vars[0]), cur.col(a.vars[1])
	sameVar := a.vars[0] == a.vars[1]
	// Index the atom by its bound positions; the values are the free ones.
	idx := map[key][]int32{}
	for _, p := range pairs {
		if sameVar && p.X != p.Y {
			continue
		}
		switch {
		case b0 >= 0 && b1 >= 0:
			idx[key{p.X, p.Y}] = nil
		case b0 >= 0:
			idx[key{p.X}] = append(idx[key{p.X}], p.Y)
		case b1 >= 0:
			idx[key{p.Y}] = append(idx[key{p.Y}], p.X)
		default:
			idx[key{}] = append(idx[key{}], p.X, p.Y)
		}
	}
	var newVars []string
	for i, v := range a.vars {
		if cur.col(v) < 0 && need[v] && !(i == 1 && sameVar) {
			newVars = append(newVars, v)
		}
	}
	out := &refTable{}
	var keep []int
	for i, c := range cur.cols {
		if need[c] {
			keep = append(keep, i)
			out.cols = append(out.cols, c)
		}
	}
	out.cols = append(out.cols, newVars...)
	seen := map[string]bool{}
	var buf []byte
	emit := func(row []int32, extra ...int32) {
		buf = buf[:0]
		for _, k := range keep {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(row[k]))
		}
		for _, v := range extra {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if seen[string(buf)] {
			return
		}
		seen[string(buf)] = true
		r := make([]int32, 0, len(out.cols))
		for _, k := range keep {
			r = append(r, row[k])
		}
		out.rows = append(out.rows, append(r, extra...))
	}
	for _, row := range cur.rows {
		switch {
		case b0 >= 0 && b1 >= 0:
			if _, ok := idx[key{row[b0], row[b1]}]; ok {
				emit(row)
			}
		case b0 >= 0 || b1 >= 0:
			b := b0
			if b < 0 {
				b = b1
			}
			vals := idx[key{row[b]}]
			if len(newVars) == 0 {
				if len(vals) > 0 {
					emit(row)
				}
				continue
			}
			for _, v := range vals {
				emit(row, v)
			}
		default:
			vals := idx[key{}]
			for i := 0; i+1 < len(vals); i += 2 {
				var extra []int32
				if need[a.vars[0]] {
					extra = append(extra, vals[i])
				}
				if need[a.vars[1]] && !sameVar {
					extra = append(extra, vals[i+1])
				}
				emit(row, extra...)
			}
		}
	}
	return out
}

// projectRef maps the final table onto the head, applying COUNT(v) as the
// number of distinct v per group.
func projectRef(q *refQuery, t *refTable) [][]int64 {
	pos := make([]int, len(q.head))
	for i, h := range q.head {
		pos[i] = t.col(h)
	}
	distinct := map[string][]int64{}
	var order []string
	for _, r := range t.rows {
		tup := make([]int64, len(pos))
		for i, p := range pos {
			tup[i] = int64(r[p])
		}
		s := fmt.Sprint(tup)
		if _, ok := distinct[s]; !ok {
			distinct[s] = tup
			order = append(order, s)
		}
	}
	if q.count < 0 {
		out := make([][]int64, 0, len(order))
		for _, s := range order {
			out = append(out, distinct[s])
		}
		return out
	}
	groups := map[string][]int64{}
	var gorder []string
	for _, s := range order {
		tup := distinct[s]
		g := make([]int64, len(tup))
		copy(g, tup)
		g[q.count] = 0
		gk := fmt.Sprint(g)
		if _, ok := groups[gk]; !ok {
			groups[gk] = g
			gorder = append(gorder, gk)
		}
		groups[gk][q.count]++
	}
	out := make([][]int64, 0, len(gorder))
	for _, gk := range gorder {
		out = append(out, groups[gk])
	}
	return out
}

// answer is an order-independent summary of a result: its arity, its tuple
// count and the wrapping sum of a hash of each tuple.
type answer struct {
	arity  int
	rows   int
	digest uint64
}

func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// tupleHash hashes one tuple; digest sums these, so order does not matter.
func tupleHash(t []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range t {
		h = mix64(h ^ uint64(v))
	}
	return h
}

func summarize(arity int, tuples [][]int64) answer {
	a := answer{arity: arity, rows: len(tuples)}
	for _, t := range tuples {
		a.digest += tupleHash(t)
	}
	return a
}
