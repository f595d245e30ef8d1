package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/acyclic"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/joinproject"
	"repro/internal/query"
	"repro/internal/relation"
)

// The traced run replays the start of client 0's op sequence from a single
// client. Each op becomes a chain of timed calls into public functions, one
// per layer: the loopback request, Handler().ServeHTTP into a recorder,
// Engine.QueryContext, catalog.PrepareContext and Prepared.Execute, whose
// returned plan gives the node times. A child span re-executes the call its
// parent wraps, so a layer's self time is its span minus its children.
// The program itself is not instrumented.

// span is one timed call. Start and End are nanoseconds since the trace
// began; Parent indexes the trace's spans (-1 for a root); the spans of one
// op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// time runs fn as a span named name and returns the span's index.
func (t *tracer) time(name string, parent, op int, fn func()) int {
	return t.timeNamed(parent, op, func() string { fn(); return name })
}

// timeNamed runs fn as a span named by fn's result, for calls whose outcome
// decides what they were (a plan-cache hit or miss).
func (t *tracer) timeNamed(parent, op int, fn func() string) int {
	start := t.now()
	name := fn()
	t.spans = append(t.spans, span{Name: name, Start: start, End: t.now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// reps is how often the traced run repeats each read-only call; the span
// keeps the fastest run. Interference only ever adds time, so the minimum is
// the steadiest estimate, and self times, being differences, need it most.
const reps = 3

// timeBest runs fn reps times, passing the repetition number, and records
// the fastest run as the span. It returns the span's index and the number of
// the fastest repetition.
func (t *tracer) timeBest(name string, parent, op int, fn func(rep int)) (int, int) {
	var start, end int64
	best := -1
	for r := 0; r < reps; r++ {
		s := t.now()
		fn(r)
		e := t.now()
		if best < 0 || e-s < end-start {
			start, end, best = s, e, r
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1, best
}

// add records a span measured elsewhere (a plan node's TimeNs).
func (t *tracer) add(name string, parent, op int, start, dur int64) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + dur, Parent: parent, Op: op})
}

// selfNs returns each span's duration minus the durations of its children.
// Children re-execute part of the parent's call rather than run inside its
// interval, so their durations are subtracted instead of their overlap.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerSums totals span durations and self times per op kind and span name.
type layerSums struct {
	dur, self map[string]float64 // ms, keyed kind/name
	calls     map[string]int     // spans per name, any kind
}

func sumLayers(spans []span, kinds []opKind) layerSums {
	l := layerSums{dur: map[string]float64{}, self: map[string]float64{}, calls: map[string]int{}}
	self := selfNs(spans)
	for i, s := range spans {
		key := kinds[s.Op].String() + "/" + s.Name
		l.dur[key] += float64(s.End-s.Start) / 1e6
		l.self[key] += float64(self[i]) / 1e6
		l.calls[s.Name]++
	}
	return l
}

// traceState is one traced replay in progress.
type traceState struct {
	b   *bench
	sys *system
	cl  *client
	tr  *tracer
	// A traced mutation is also applied to a bare catalog and to an
	// in-memory engine with the views: the durable engine minus the
	// in-memory one is the WAL, the in-memory one minus the bare catalog is
	// view maintenance.
	bare      *catalog.Catalog
	mem       *core.Engine
	kinds     []opKind
	failed    int
	errs      []error
	respBytes int
	plans     map[int][]string // query index -> strategy summaries seen, in order
	since     int              // WAL records since the last checkpoint
}

func (ts *traceState) fail(err error) {
	ts.failed++
	if len(ts.errs) < 5 {
		ts.errs = append(ts.errs, err)
	}
}

func (b *bench) traceRun(workdir string) (*result, error) {
	budget := time.Duration(b.seconds) * time.Second / 2
	dataDir := b.newDir()
	// Checkpoints are taken explicitly at the op positions the automatic
	// policy would choose, so their time is measured.
	sys, err := startSystem(b.w, b.spec.Constants, b.rels, dataDir, 0)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = sys.stop() // already failing; the first error is reported
		}
	}()
	if err := b.warmUp(sys); err != nil {
		return nil, err
	}
	ts := &traceState{
		b: b, sys: sys, cl: newClient(sys.url),
		tr: newTracer(), plans: map[int][]string{},
	}
	defer ts.cl.close()
	var wal0 core.PersistenceStats
	if b.w.Durable {
		ts.bare, ts.mem = catalog.New(), core.NewEngine(core.WithOptimizerConstants(b.spec.Constants))
		for _, name := range relationNames {
			if _, err := ts.bare.RegisterPairs(name, b.rels[name]); err != nil {
				return nil, err
			}
		}
		if err := populate(ts.mem, b.w, b.rels); err != nil {
			return nil, err
		}
		wal0 = sys.eng.PersistenceStats()
		ts.since = int(wal0.WAL.Appended)
	}

	seq := b.seqs[0]
	deadline := time.Now().Add(budget)
	mutations := 0
	for k := 0; k < len(seq) && time.Now().Before(deadline); k++ {
		o := &seq[k]
		ts.kinds = append(ts.kinds, o.kind)
		switch o.kind {
		case opQuery:
			ts.traceQuery(k, o)
		case opViewRead:
			ts.traceViewRead(k, o)
		case opMutate:
			mutations++
			ts.traceMutation(k, o)
		}
	}
	ops := len(ts.kinds)
	ls := sumLayers(ts.tr.spans, ts.kinds)

	rep := newReport()
	rep.add("trace.ops", float64(ops), "count", fmt.Sprintf("ops replayed in %.1f s", budget.Seconds()))
	ts.report(rep, ls)

	// Durability: WAL counters over the replay, then reopen a copy. They
	// stay zero on the in-memory workloads.
	var syncs, walBytes, replay float64
	var state map[string]int
	if b.w.Durable {
		wal1 := sys.eng.PersistenceStats()
		per := float64(max(1, mutations))
		syncs = float64(wal1.WAL.Syncs-wal0.WAL.Syncs) / per
		walBytes = float64(wal1.WAL.AppendedBytes-wal0.WAL.AppendedBytes) / per
		if state, err = b.checkFinalState(sys.eng, []int{ops}); err != nil {
			ts.fail(err)
		}
	}
	stopped = true
	if err := sys.stop(); err != nil {
		return nil, err
	}
	if state != nil {
		if replay, err = b.checkRecovery(dataDir, state); err != nil {
			ts.fail(err)
		}
	}
	rep.add("wal.syncs_per_mutation", syncs, "count", fmt.Sprintf("WAL fsyncs over n=%d mutations", mutations))
	rep.add("wal.bytes_per_mutation", walBytes, "bytes", fmt.Sprintf("WAL bytes over n=%d mutations", mutations))
	rep.add("wal.replay_ms", replay, "ms", "Engine.Open on a copy of the data dir")

	// The same ops again, untraced, on a fresh system: the runtime counters
	// and the tracing overhead come from this replay.
	untraced, rt, err := b.untracedReplay(seq[:ops])
	if err != nil {
		return nil, err
	}
	rep.add("runtime.gc_cpu_share", rt.gcCPUShare, "share", "GC CPU over all CPU in the untraced replay")
	rep.add("runtime.gc_pause_p99_ms", rt.gcPauseP99.Value, "ms",
		fmt.Sprintf("GC pauses in the untraced replay: n=%d, %d beyond%s", rt.gcPauseP99.N, rt.gcPauseP99.Beyond, warnBeyond(rt.gcPauseP99.Beyond)))
	traced := (ls.dur["query/transport.request"] + ls.dur["view_read/transport.request"]) /
		float64(max(1, len(untraced)))
	base := 0.0
	for _, v := range untraced {
		base += v
	}
	base /= float64(max(1, len(untraced)))
	overhead := 0.0
	if base > 0 {
		overhead = (traced - base) / base
	}
	rep.add("trace.overhead_share", overhead, "share",
		fmt.Sprintf("traced loopback %.3f ms vs untraced %.3f ms per read op", traced, base))

	for _, e := range ts.errs {
		fmt.Println("error:", e)
	}
	ts.printPlans()
	rep.print()
	path, err := b.writeSpans(workdir, ts.tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(ts.tr.spans), path)
	return &result{Correct: ts.failed == 0, Attempted: ops, Failed: ts.failed, Metrics: rep.only(perLayer)}, nil
}

// perLayer are the metrics BENCHMARK.json lists for the traced run. A layer
// that only some workloads run is listed as its share of the enclosing
// call, which is 0 where the layer does not run; its time in ms is printed
// with the rest. Times listed here are measured on every workload.
var perLayer = []string{
	"transport.self_ms", "server.self_ms", "server.response_bytes", "core.bookkeeping_ms",
	"query.parse_ms", "query.exec_ms", "query.project_self_ms",
	"query.node.fold_share", "query.node.groupfold_share", "query.node.star_share",
	"acyclic.glue_share", "relation.from_pairs_share",
	"catalog.prepare_hit_ms", "query.compile_ms", "catalog.plan_cache_hit_ratio",
	"catalog.mutate_share", "relation.apply_delta_share", "view.maintain_share", "wal.append_share",
	"wal.syncs_per_mutation", "wal.bytes_per_mutation",
	"runtime.gc_cpu_share", "runtime.gc_pause_p99_ms",
	"trace.ops", "trace.overhead_share",
}

// report adds the per-layer means of the replay's spans to rep.
func (ts *traceState) report(rep *report, ls layerSums) {
	n := map[opKind]int{}
	for _, k := range ts.kinds {
		n[k]++
	}
	perOp := func(metric string, kind opKind, name string, self bool, what string) {
		sums := ls.dur
		if self {
			sums = ls.self
		}
		v := sums[kind.String()+"/"+name] / float64(max(1, n[kind]))
		rep.add(metric, v, "ms", fmt.Sprintf("%s, mean over n=%d %s ops", what, n[kind], kind))
	}
	perCall := func(metric, name, what string) {
		c := ls.calls[name]
		sum := 0.0
		for k := opKind(0); k < numOpKinds; k++ {
			sum += ls.dur[k.String()+"/"+name]
		}
		rep.add(metric, sum/float64(max(1, c)), "ms", fmt.Sprintf("%s, mean over n=%d calls", what, c))
	}
	perOp("transport.self_ms", opQuery, "transport.request", true, "loopback round trip minus ServeHTTP")
	perOp("server.self_ms", opQuery, "server.serve", true, "ServeHTTP minus Engine.QueryContext")
	rep.add("server.response_bytes", float64(ts.respBytes)/float64(max(1, n[opQuery])), "bytes",
		fmt.Sprintf("mean /query response over n=%d", n[opQuery]))
	perOp("core.bookkeeping_ms", opQuery, "core.query", true, "QueryContext minus PrepareContext and Execute")
	perOp("query.parse_ms", opQuery, "query.parse", false, "query.Parse")
	perOp("query.exec_ms", opQuery, "query.execute", false, "Prepared.Execute")
	for _, node := range []string{"fold", "groupfold", "star", "bagjoin"} {
		perOp("query.node."+node+"_ms", opQuery, "query.node."+node, false, node+" node time from the plan")
	}
	perOp("query.project_self_ms", opQuery, "query.execute", true, "Execute minus its timed plan nodes")
	share := func(metric string, part, whole float64, what string) {
		v := 0.0
		if whole > 0 {
			v = part / whole
		}
		rep.add(metric, v, "share", what)
	}
	exec := ls.dur["query/query.execute"]
	for _, node := range []string{"fold", "groupfold", "star"} {
		share("query.node."+node+"_share", ls.dur["query/query.node."+node], exec, node+" node time over Execute time")
	}
	perOp("acyclic.compose_ms", opQuery, "acyclic.compose", false, "acyclic.Compose on the query's chain relations")
	perOp("joinproject.twopath_kernel_ms", opQuery, "joinproject.twopath_kernel", false, "the two-path kernel the plan chose")
	perOp("relation.from_pairs_ms", opQuery, "relation.from_pairs", false, "relation.FromPairs on the kernel's output")
	compose := ls.dur["query/acyclic.compose"]
	share("acyclic.glue_share", compose-ls.dur["query/joinproject.twopath_kernel"], compose, "Compose time outside the kernel")
	share("relation.from_pairs_share", ls.dur["query/relation.from_pairs"], compose, "FromPairs time over Compose time")
	perOp("joinproject.star_ms", opQuery, "joinproject.star", false, "the star kernel the plan chose")
	perCall("catalog.prepare_hit_ms", "catalog.prepare_hit", "PrepareContext served from the plan cache")
	perCall("catalog.prepare_miss_ms", "catalog.prepare_miss", "PrepareContext that compiled")
	perCall("query.compile_ms", "query.compile", "query.CompileContext of each query op")
	hits, misses := ls.calls["catalog.prepare_hit"], ls.calls["catalog.prepare_miss"]
	rep.add("catalog.plan_cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio",
		fmt.Sprintf("%d hits, %d misses on each query's first plan-cache lookup", hits, misses))
	perOp("catalog.mutate_ms", opMutate, "catalog.mutate", false, "Mutate on a bare catalog")
	perOp("relation.apply_delta_ms", opMutate, "relation.apply_delta", false, "relation.ApplyDelta of the effective delta")
	perOp("view.maintain_ms", opMutate, "core.mutate_mem", true, "in-memory engine with views minus bare catalog")
	perOp("wal.append_ms", opMutate, "core.mutate", true, "durable engine minus in-memory engine")
	durable := ls.dur["mutate/core.mutate"]
	share("catalog.mutate_share", ls.dur["mutate/catalog.mutate"], durable, "bare catalog over durable engine Mutate time")
	share("relation.apply_delta_share", ls.dur["mutate/relation.apply_delta"], durable, "ApplyDelta over durable engine Mutate time")
	share("view.maintain_share", ls.self["mutate/core.mutate_mem"], durable, "view maintenance over durable engine Mutate time")
	share("wal.append_share", ls.self["mutate/core.mutate"], durable, "WAL over durable engine Mutate time")
	perOp("view.read_ms", opViewRead, "view.read", false, "View.Result")
	perCall("snapshot.checkpoint_ms", "snapshot.checkpoint", "Engine.Checkpoint at the automatic policy's positions")
}

func (ts *traceState) traceQuery(k int, o *op) {
	b, tr, eng := ts.b, ts.tr, ts.sys.eng
	ctx := context.Background()
	text := b.w.Queries[o.index]

	// The op's first plan-cache lookup decides hit or miss, as the closed
	// loop's request would; every later call in the chain hits.
	var q *query.Query
	var err error
	tr.timeBest("query.parse", -1, k, func(int) { q, err = query.Parse(text) })
	if err != nil {
		ts.fail(err)
		return
	}
	tr.timeNamed(-1, k, func() string {
		h0, _, _ := eng.Catalog().CacheStats()
		_, _, err = eng.Catalog().PrepareContext(ctx, text)
		if h1, _, _ := eng.Catalog().CacheStats(); h1 > h0 {
			return "catalog.prepare_hit"
		}
		return "catalog.prepare_miss"
	})
	if err != nil {
		ts.fail(err)
		return
	}
	// Compiling is what a plan-cache miss pays; it is timed on every op so
	// the figure exists on workloads that always hit.
	rels, _, _ := eng.Catalog().Snapshot()
	tr.timeBest("query.compile", -1, k, func(int) { _, err = query.CompileContext(ctx, q, query.MapResolver(rels)) })
	if err != nil {
		ts.fail(err)
		return
	}

	root, ok := ts.traceRequest(k, o)
	if !ok {
		return
	}
	serve, ok := ts.traceServe(k, o, root)
	if !ok {
		return
	}
	qc, _ := tr.timeBest("core.query", serve, k, func(int) {
		if _, e := eng.QueryContext(ctx, text); e != nil {
			err = e
		}
	})
	if err != nil {
		ts.fail(err)
		return
	}
	var p *query.Prepared
	tr.timeBest("catalog.prepare", qc, k, func(int) { p, _, err = eng.Catalog().PrepareContext(ctx, text) })
	if err != nil {
		ts.fail(err)
		return
	}
	results := make([]*query.Result, reps)
	exec, best := tr.timeBest("query.execute", qc, k, func(r int) {
		if res, e := p.Execute(ctx, query.ExecOptions{Optimizer: eng.Optimizer()}); e != nil {
			err = e
		} else {
			results[r] = res
		}
	})
	if err != nil {
		ts.fail(err)
		return
	}
	res := results[best]
	got := summarize(len(res.Columns), res.Tuples)
	if b.ck.refs != nil && got != b.ck.refs[o.index] {
		ts.fail(fmt.Errorf("Execute %q: answer %+v, reference %+v", text, got, b.ck.refs[o.index]))
	}
	execStart := tr.spans[exec].Start
	var folds []*query.Node
	var star *query.Node
	res.Plan.Walk(func(n *query.Node) {
		if n == res.Plan.Root || n.TimeNs <= 0 {
			return
		}
		tr.add("query.node."+n.Op, exec, k, execStart, n.TimeNs)
		switch n.Op {
		case "fold":
			folds = append(folds, n)
		case "star":
			star = n
		}
	})
	summary := strings.Join(res.Plan.Strategies(), " ")
	if seen := ts.plans[o.index]; len(seen) == 0 || seen[len(seen)-1] != summary {
		ts.plans[o.index] = append(seen, summary)
	}

	if err := ts.probeKernels(k, text, folds, star); err != nil {
		ts.fail(err)
	}
}

// traceRequest times o's loopback round trip and checks every reply.
func (ts *traceState) traceRequest(k int, o *op) (int, bool) {
	var err error
	root, _ := ts.tr.timeBest("transport.request", -1, k, func(rep int) {
		status, body, e := ts.cl.do(o)
		if e == nil {
			e = ts.b.ck.check(o, status, body)
			if o.kind == opQuery && rep == 0 {
				ts.respBytes += len(body)
			}
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		ts.fail(err)
		return 0, false
	}
	return root, true
}

// traceServe times Handler().ServeHTTP for o into a recorder.
func (ts *traceState) traceServe(k int, o *op, parent int) (int, bool) {
	code := http.StatusOK
	serve, _ := ts.tr.timeBest("server.serve", parent, k, func(int) {
		rec := httptest.NewRecorder()
		ts.sys.handler.ServeHTTP(rec, httptest.NewRequest(o.method(), o.path, bytes.NewReader(o.body)))
		if rec.Code != http.StatusOK {
			code = rec.Code
		}
	})
	if code != http.StatusOK {
		ts.fail(fmt.Errorf("ServeHTTP %s: status %d", o.path, code))
		return 0, false
	}
	return serve, true
}

// probeKernels splits kernel from glue on the query's own catalog
// relations: for a fold plan it composes the leading chain of atoms with
// acyclic.Compose and times the two-path kernel the plan chose and
// relation.FromPairs on that kernel's output; for a star plan it times the
// star kernel.
func (ts *traceState) probeKernels(k int, text string, folds []*query.Node, star *query.Node) error {
	rq, err := parseRef(text)
	if err != nil {
		return err
	}
	cat := ts.sys.eng.Catalog()
	rel := func(a refAtom) *relation.Relation { r, _ := cat.Get(a.rel); return r }
	tr := ts.tr
	if star != nil {
		rels := make([]*relation.Relation, len(rq.atoms))
		for i, a := range rq.atoms {
			rels[i] = rel(a)
		}
		jopt := joinproject.Options{Delta1: star.Delta1, Delta2: star.Delta2}
		tr.timeBest("joinproject.star", -1, k, func(int) {
			if star.Strategy == acyclic.StrategyNonMM {
				joinproject.StarNonMM(rels, jopt)
			} else {
				joinproject.StarMM(rels, jopt)
			}
		})
	}
	if len(folds) == 0 {
		return nil
	}
	// Plan.Walk lists the last fold first; the chain composes in the
	// opposite order.
	for i, j := 0, len(folds)-1; i < j; i, j = i+1, j-1 {
		folds[i], folds[j] = folds[j], folds[i]
	}
	acc := rel(rq.atoms[0])
	for i := 1; i < len(rq.atoms) && rq.atoms[i].vars[0] == rq.atoms[i-1].vars[1]; i++ {
		next := rel(rq.atoms[i])
		f := folds[min(i-1, len(folds)-1)]
		opt := acyclic.Options{Force: f.Strategy, Join: joinproject.Options{Delta1: f.Delta1, Delta2: f.Delta2}}
		var out *relation.Relation
		comp, _ := tr.timeBest("acyclic.compose", -1, k, func(int) { out, _ = acyclic.Compose(acc, next, opt) })
		var pairs [][2]int32
		tr.timeBest("joinproject.twopath_kernel", comp, k, func(int) { pairs = twoPathKernel(acc, next, opt) })
		ps := make([]relation.Pair, len(pairs))
		for j, p := range pairs {
			ps[j] = relation.Pair{X: p[0], Y: p[1]}
		}
		tr.timeBest("relation.from_pairs", comp, k, func(int) { relation.FromPairs("probe", ps) })
		if len(ps) != out.Size() {
			return fmt.Errorf("kernel probe of %q: kernel gave %d pairs, Compose %d", text, len(ps), out.Size())
		}
		acc = out
	}
	return nil
}

// twoPathKernel runs the kernel acyclic.Compose runs for opt's strategy,
// with the right operand swapped into (c, b) orientation as Compose does.
func twoPathKernel(l, r *relation.Relation, opt acyclic.Options) [][2]int32 {
	rs, jopt := r.Swap(), opt.Join
	switch opt.Force {
	case acyclic.StrategyWCOJ:
		t := max(l.Size(), r.Size()) + 1
		jopt.Delta1, jopt.Delta2 = t, t
		return joinproject.TwoPathMM(l, rs, jopt)
	case acyclic.StrategyNonMM:
		return joinproject.TwoPathNonMM(l, rs, jopt)
	default:
		return joinproject.TwoPathMM(l, rs, jopt)
	}
}

// traceViewRead times View.Result first, as the op's first touch of the
// view (a read after a mutation rebuilds the view's sorted result), then the
// request chain.
func (ts *traceState) traceViewRead(k int, o *op) {
	name := ts.b.w.Views[o.index].Name
	v, ok := ts.sys.eng.View(name)
	if !ok {
		ts.fail(fmt.Errorf("view %s is missing", name))
		return
	}
	var err error
	ts.tr.time("view.read", -1, k, func() { _, _, _, err = v.Result(context.Background()) })
	if err != nil {
		ts.fail(err)
		return
	}
	if root, ok := ts.traceRequest(k, o); ok {
		ts.traceServe(k, o, root)
	}
}

// traceMutation applies one batch to the durable engine, the in-memory
// engine with views and the bare catalog, nesting the spans so that self
// times are the WAL and view-maintenance shares.
func (ts *traceState) traceMutation(k int, o *op) {
	ins, del := o.pairs, []relation.Pair(nil)
	if o.del {
		ins, del = nil, o.pairs
	}
	var m, dm catalog.Mutation
	var err, derr, merr error
	durable := ts.tr.time("core.mutate", -1, k, func() { dm, derr = ts.sys.eng.Mutate(o.rel, ins, del) })
	mem := ts.tr.time("core.mutate_mem", durable, k, func() { _, merr = ts.mem.Mutate(o.rel, ins, del) })
	bare := ts.tr.time("catalog.mutate", mem, k, func() { m, err = ts.bare.Mutate(o.rel, ins, del) })
	for _, e := range []error{derr, merr, err} {
		if e != nil {
			ts.fail(e)
			return
		}
	}
	if len(dm.Added)+len(dm.Removed) != len(o.pairs) || len(m.Added)+len(m.Removed) != len(o.pairs) {
		ts.fail(fmt.Errorf("mutate %s: effective delta %d/%d, want %d", o.path,
			len(dm.Added)+len(dm.Removed), len(m.Added)+len(m.Removed), len(o.pairs)))
	}
	ts.tr.time("relation.apply_delta", bare, k, func() { relation.ApplyDelta(m.Old, o.rel, m.Added, m.Removed) })
	ts.since++
	if every := ts.b.w.CheckpointEvery; every > 0 && ts.since >= every {
		ts.since = 0
		ts.tr.time("snapshot.checkpoint", -1, k, func() { _, err = ts.sys.eng.Checkpoint() })
		if err != nil {
			ts.fail(err)
		}
	}
}

// untracedReplay sends ops from one client to a fresh system with no
// spans, each read reps times as the traced replay does, and returns the
// fastest round trip of each read in ms, with the runtime counters.
func (b *bench) untracedReplay(ops []op) ([]float64, runtimeWindow, error) {
	sys, err := startSystem(b.w, b.spec.Constants, b.rels, b.newDir(), b.w.CheckpointEvery)
	if err != nil {
		return nil, runtimeWindow{}, err
	}
	defer func() { _ = sys.stop() }() // stop errors cannot change the figures
	if err := b.warmUp(sys); err != nil {
		return nil, runtimeWindow{}, err
	}
	cl := newClient(sys.url)
	defer cl.close()
	var best []float64
	before := readRuntimeAfterGC()
	for i := range ops {
		o := &ops[i]
		n := reps
		if o.kind == opMutate {
			n = 1
		}
		fastest := math.Inf(1)
		for r := 0; r < n; r++ {
			t0 := time.Now()
			status, body, err := cl.do(o)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			if err == nil {
				err = b.ck.check(o, status, body)
			}
			if err != nil {
				return nil, runtimeWindow{}, fmt.Errorf("untraced replay: %w", err)
			}
			fastest = min(fastest, ms)
		}
		if o.kind != opMutate {
			best = append(best, fastest)
		}
	}
	return best, diffRuntime(before, readRuntime()), nil
}

// printPlans prints each query's strategy summary; more than one summary
// for a query means its plan flipped during the replay.
func (ts *traceState) printPlans() {
	idx := make([]int, 0, len(ts.plans))
	for i := range ts.plans {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		fmt.Printf("plan %-50q %s\n", ts.b.w.Queries[i], strings.Join(ts.plans[i], "  ->  "))
	}
}

// writeSpans dumps the spans as JSON lines once the replay is over.
func (b *bench) writeSpans(workdir string, spans []span) (string, error) {
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.Name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
