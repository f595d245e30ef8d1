package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/relation"
)

// QueryBench is the end-to-end timing of one text query: the parse, the
// compile (plan + semijoin reduction), and the full parse+plan+execute
// pipeline, plus the result cardinality and the executed plan's strategy
// summary. Times are min-of-reps (the minimum is the stable estimator under
// scheduler noise — interference only ever adds time), which is what lets
// the CI regression gate compare runs without tripping on machine noise.
type QueryBench struct {
	ParseNs   int64    `json:"parse_ns_per_op"`
	CompileNs int64    `json:"compile_ns_per_op"`
	ExecNs    int64    `json:"exec_ns_per_op"`
	Rows      int      `json:"rows"`
	Plan      []string `json:"plan"`
	Reps      int      `json:"reps"`
}

// QuerySnapshot is the machine-readable query-pipeline trajectory
// cmd/joinbench writes in -query mode (BENCH_queries.json). Keys are the
// canonical query texts; re-runs merge into an existing snapshot so the file
// accumulates a stable suite.
type QuerySnapshot struct {
	GoOS       string                `json:"goos"`
	GoArch     string                `json:"goarch"`
	NumCPU     int                   `json:"num_cpu"`
	Scale      float64               `json:"scale"`
	Timestamp  string                `json:"timestamp"`
	Benchmarks map[string]QueryBench `json:"benchmarks"`
}

// DefaultQuerySuite is the canned -query suite: one query per planner shape
// (2-path, chain fold, star, snowflake-ish tree, aggregate, hinted, and a
// cyclic triangle exercising the hypertree-decomposition path).
func DefaultQuerySuite() []string {
	return []string{
		"Q(x, z) :- R(x, y), S(y, z)",
		"Q(a, d) :- R(a, b), S(b, c), T(c, d)",
		"Q(a, b, c) :- R(a, y), S(b, y), T(c, y)",
		"Q(a, d) :- R(a, b), S(b, c), T(c, d), U(c, e)",
		"Q(x, COUNT(z)) :- R(x, y), S(y, z)",
		"Q(x, z) :- R(x, y), S(y, z) WITH strategy=wcoj",
		"Q(x, z) :- R(x, y), S(y, z), T(z, x)",
	}
}

// QueryBenchCatalog builds the synthetic catalog the -query mode runs
// against: five community-structured relations R, S, T, U, V whose size
// scales with the shared -scale flag.
func QueryBenchCatalog(scale float64) *catalog.Catalog {
	cat := catalog.New()
	registerQueryBench(cat, scale)
	return cat
}

// registerQueryBench registers the QueryBenchCatalog relations into cat.
func registerQueryBench(cat *catalog.Catalog, scale float64) {
	n := int(float64(6000) * scale)
	if n < 200 {
		n = 200
	}
	for i, name := range []string{"R", "S", "T", "U", "V"} {
		r := dataset.Community(n, 24+4*i, int64(101+i))
		// Re-register under the catalog name.
		pairs := r.Pairs()
		if _, err := cat.RegisterPairs(name, pairs); err != nil {
			panic(err)
		}
	}
}

// queryBudget bounds the per-query measurement time.
const queryBudget = 400 * time.Millisecond

// MeasureQuery times one query end to end against the catalog.
func MeasureQuery(cat *catalog.Catalog, src string) (QueryBench, error) {
	q, err := query.Parse(src)
	if err != nil {
		return QueryBench{}, err
	}
	canonical := q.String()
	var qb QueryBench
	reps := 0
	qb.ParseNs = measureNs(func() error {
		_, err := query.Parse(canonical)
		return err
	}, &reps)

	snapResolver := catalogResolver(cat)
	compiled, err := query.Compile(q, snapResolver)
	if err != nil {
		return QueryBench{}, err
	}
	qb.CompileNs = measureNs(func() error {
		_, err := query.Compile(q, snapResolver)
		return err
	}, &reps)

	opt := optimizer.New()
	res, err := compiled.Execute(context.Background(), query.ExecOptions{Optimizer: opt})
	if err != nil {
		return QueryBench{}, err
	}
	qb.Rows = len(res.Tuples)
	qb.Plan = res.Plan.Strategies()

	// End-to-end: parse + compile (cold plan cache per rep) + execute.
	qb.ExecNs = measureNs(func() error {
		p, err := query.Prepare(canonical, snapResolver)
		if err != nil {
			return err
		}
		_, err = p.Execute(context.Background(), query.ExecOptions{Optimizer: opt})
		return err
	}, &qb.Reps)
	return qb, nil
}

func catalogResolver(cat *catalog.Catalog) query.Resolver {
	return func(name string) (*relation.Relation, error) {
		r, ok := cat.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", name)
		}
		return r, nil
	}
}

// measureNs reports the fastest rep within the budget (min-of-reps, like
// the kernel snapshot): the regression gate needs an estimator that does not
// drift with co-tenant interference.
func measureNs(fn func() error, reps *int) int64 {
	if err := fn(); err != nil { // warm-up
		return -1
	}
	n := 0
	best := int64(1<<63 - 1)
	start := time.Now()
	for time.Since(start) < queryBudget || n < 3 {
		t0 := time.Now()
		if err := fn(); err != nil {
			return -1
		}
		if d := time.Since(t0).Nanoseconds(); d < best {
			best = d
		}
		n++
	}
	*reps = n
	return best
}

// QueryBenchSnapshot measures each query against a fresh synthetic catalog
// and merges the results into prev (a prior snapshot file; nil for none).
func QueryBenchSnapshot(queries []string, scale float64, prev []byte) ([]byte, error) {
	snap := QuerySnapshot{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Scale:      scale,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Benchmarks: map[string]QueryBench{},
	}
	if len(prev) > 0 {
		var old QuerySnapshot
		if err := json.Unmarshal(prev, &old); err == nil && old.Scale == scale {
			for k, v := range old.Benchmarks {
				snap.Benchmarks[k] = v
			}
		}
	}
	cat := QueryBenchCatalog(scale)
	for _, src := range queries {
		q, err := query.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", src, err)
		}
		qb, err := MeasureQuery(cat, src)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", src, err)
		}
		snap.Benchmarks[q.String()] = qb
	}
	return json.MarshalIndent(snap, "", "  ")
}

// CompareQuerySnapshots diffs two BENCH_queries.json snapshots and returns
// every query present in both whose end-to-end (parse+plan+execute) min-of-
// reps time regressed by more than tol — the query twin of the kernel gate.
// Queries present in only one snapshot are ignored, so extending the suite
// never fails the gate; snapshots at different scales are incomparable and
// error out.
func CompareQuerySnapshots(baseline, current []byte, tol float64) ([]Regression, error) {
	var old, cur QuerySnapshot
	if err := json.Unmarshal(baseline, &old); err != nil {
		return nil, fmt.Errorf("baseline snapshot: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return nil, fmt.Errorf("current snapshot: %w", err)
	}
	if old.Scale != cur.Scale {
		return nil, fmt.Errorf("snapshot scales differ: baseline %g vs current %g", old.Scale, cur.Scale)
	}
	var regs []Regression
	for name, ob := range old.Benchmarks {
		cb, ok := cur.Benchmarks[name]
		if !ok || ob.ExecNs <= 0 || cb.ExecNs <= 0 {
			continue
		}
		ratio := float64(cb.ExecNs) / float64(ob.ExecNs)
		if ratio > 1+tol {
			regs = append(regs, Regression{Name: name, Baseline: ob.ExecNs, Current: cb.ExecNs, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs, nil
}

// RenderQuerySnapshot pretty-prints a snapshot as a table, sorted by query.
func RenderQuerySnapshot(data []byte) (string, error) {
	var snap QuerySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return "", err
	}
	keys := make([]string, 0, len(snap.Benchmarks))
	for k := range snap.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("%-70s %12s %12s %12s %8s\n", "query", "parse ns", "compile ns", "e2e ns", "rows")
	for _, k := range keys {
		b := snap.Benchmarks[k]
		out += fmt.Sprintf("%-70s %12d %12d %12d %8d\n", truncate(k, 70), b.ParseNs, b.CompileNs, b.ExecNs, b.Rows)
	}
	return out, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
