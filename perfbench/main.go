// Command perfbench is the repository's same-machine benchmark. It serves an
// in-process engine through server.Handler on a loopback listener and drives
// it with a closed loop of clients, one keep-alive connection each, checking
// every reply. With -trace 1 it instead replays the start of the same op
// sequence from one client, timing the calls into each layer's public
// functions, and reports per-layer numbers.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fold_read --seed 1 --seconds 30 --trace 0
//
// For each workload the last line of its output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it name every
// metric with its unit and sample count. -workload all runs every workload in
// turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/relation"
)

func main() {
	workload := flag.String("workload", "", "workload to run (see workloads.json), or all")
	seed := flag.Int64("seed", 1, "seed for the op sequences and mutation batches")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the closed loop")
	workdir := flag.String("workdir", ".bench_build", "directory for data dirs and the span dump")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		s, err := loadSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		names = names[:0]
		for _, w := range s.Workloads {
			names = append(names, w.Name)
		}
	}
	failed := false
	for _, name := range names {
		if err := run(name, *seed, *seconds, *trace == 1, *workdir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state shared by the untraced and traced runs of one workload.
type bench struct {
	spec    *spec
	w       *workloadSpec
	rels    map[string][]relation.Pair
	seqs    [][]op
	ck      *checker
	seed    int64
	seconds int
	dir     string // this run's own directory under the workdir
	dirs    int
}

func run(name string, seed int64, seconds int, traced bool, workdir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	s, err := loadSpec()
	if err != nil {
		return err
	}
	w, err := s.workload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{spec: s, w: w, seed: seed, seconds: seconds, dir: dir}
	b.rels = buildRelations(w.RelationPairs)
	var refs []answer
	if !w.Durable {
		for _, q := range w.Queries {
			tuples, err := evalRef(q, b.rels)
			if err != nil {
				return err
			}
			rq, _ := parseRef(q)
			refs = append(refs, summarize(len(rq.head), tuples))
		}
	}
	if b.ck, err = newChecker(w, refs); err != nil {
		return err
	}
	b.seqs = generateOps(w, b.rels, seed, seconds)
	fmt.Printf("workload=%s seed=%d seconds=%d relation_pairs=%d clients=%d durable=%v\nloop: %s\nwhy: %s\n",
		w.Name, seed, seconds, w.RelationPairs, w.Clients, w.Durable, w.Loop, w.Why)

	var res *result
	if traced {
		res, err = b.traceRun(workdir)
	} else {
		res, err = b.closedLoopRun()
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed or were wrong", res.Failed, res.Attempted)
	}
	return nil
}

// newDir returns a fresh data directory under the run's own directory.
func (b *bench) newDir() string {
	b.dirs++
	return filepath.Join(b.dir, fmt.Sprintf("data%d", b.dirs))
}

// Set-up is repeated until it has taken setupBudget, at least setupMin and
// at most setupMax times; setup_s is the median.
const (
	setupBudget = 1500 * time.Millisecond
	setupMin    = 5
	setupMax    = 41
)

// setUp builds the system repeatedly, keeps the last one and returns it
// with the number of builds and their median time. One build is engine
// construction, durable Open, relation and view registration, listener start
// and the warm-up, so work moved into the first request shows in setup_s too.
func (b *bench) setUp(checkpointEvery int) (*system, string, int, float64, error) {
	var times []float64
	total := time.Duration(0)
	for {
		dir := b.newDir()
		t0 := time.Now()
		sys, err := startSystem(b.w, b.spec.Constants, b.rels, dir, checkpointEvery)
		if err != nil {
			return nil, "", 0, 0, fmt.Errorf("set-up: %w", err)
		}
		if err := b.warmUp(sys); err != nil {
			_ = sys.stop() // the warm-up error is the one to report
			return nil, "", 0, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		if n := len(times); n >= setupMax || (n >= setupMin && total >= setupBudget) {
			return sys, dir, n, median(times), nil
		}
		if err := sys.stop(); err != nil {
			return nil, "", 0, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", 0, 0, err
		}
	}
}

// warmUp sends every query and view read once, so the timed window starts
// with the plan cache filled and every view materialized.
func (b *bench) warmUp(sys *system) error {
	cl := newClient(sys.url)
	defer cl.close()
	var ops []op
	for i := range b.w.Queries {
		ops = append(ops, queryOp(b.w, i))
	}
	for i := range b.w.Views {
		ops = append(ops, viewOp(b.w, i))
	}
	for i := range ops {
		status, body, err := cl.do(&ops[i])
		if err == nil {
			err = b.ck.check(&ops[i], status, body)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *bench) closedLoopRun() (*result, error) {
	// The benchmark's own inputs are live for the whole run; live_heap_mb
	// leaves them out so it measures what the program holds.
	inputs := liveHeapBytes()
	sys, dataDir, setupN, setupS, err := b.setUp(b.w.CheckpointEvery)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = sys.stop() // already failing; the first error is reported
		}
	}()
	before := readRuntimeAfterGC()
	lr := closedLoop(sys.url, b.seqs, b.ck, time.Duration(b.seconds)*time.Second, !b.w.Durable)
	rt := diffRuntime(before, readRuntime())
	live := liveHeapBytes()
	if lr.exhausted {
		lr.fail(fmt.Errorf("a client ran out of pre-generated ops"))
	}
	var state map[string]int
	if b.w.Durable && lr.failed == 0 {
		if state, err = b.checkFinalState(sys.eng, lr.sent); err != nil {
			lr.fail(err)
		}
	}
	stopped = true
	if err := sys.stop(); err != nil {
		return nil, err
	}
	if state != nil {
		replay, err := b.checkRecovery(dataDir, state)
		if err != nil {
			lr.fail(err)
		} else {
			fmt.Printf("recovery: reopened a copy of the data dir in %.3f ms with the same relation sizes and view rows\n", replay)
		}
	}
	for _, e := range lr.errs {
		fmt.Println("error:", e)
	}

	done := lr.completed()
	secs := lr.elapsed.Seconds()
	rep := newReport()
	rep.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups, each up to a warm first request of every query and view", setupN))
	// Throughput and the query median and p90 are medians over windows of
	// the run, so a burst of interference from outside the process moves
	// one window, not the reported figure.
	wins, width := lr.windows(numWindows)
	var tput, p50s, p90s []float64
	fewest := math.MaxInt
	for _, w := range wins {
		tput = append(tput, float64(len(w))/width)
		q := latencies(w, opQuery)
		p50s = append(p50s, percentile(q, 0.50).Value)
		p90 := percentile(q, 0.90)
		p90s = append(p90s, p90.Value)
		fewest = min(fewest, p90.Beyond)
	}
	perWindow := fmt.Sprintf("median over %d windows of %.2f s", numWindows, width)
	fmt.Printf("windows: ops/s %s\n", fmtFloats(tput))
	rep.add("throughput_ops", median(tput), "ops/s", fmt.Sprintf("%s; n=%d correct ops in %.3f s", perWindow, done, secs))
	rep.add("query_p50_ms", median(p50s), "ms", perWindow)
	rep.add("query_p90_ms", median(p90s), "ms", fmt.Sprintf("%s; at least %d beyond in each%s", perWindow, fewest, warnBeyond(fewest)))
	// Tails and the write-path latencies are read over the whole run: a
	// window holds too few samples beyond them.
	whole := func(k opKind, name string, q float64) {
		pc := percentile(latencies(lr.samples, k), q)
		if pc.N == 0 {
			rep.note(name, "n/a: this workload sends no "+k.String()+" ops")
			return
		}
		rep.add(name, pc.Value, "ms", fmt.Sprintf("whole run: n=%d, %d beyond%s", pc.N, pc.Beyond, warnBeyond(pc.Beyond)))
	}
	whole(opQuery, "query_p99_ms", 0.99)
	for _, k := range []opKind{opMutate, opViewRead} {
		whole(k, k.String()+"_p50_ms", 0.50)
		whole(k, k.String()+"_p99_ms", 0.99)
	}
	rep.note("error_rate", fmt.Sprintf("%g (%d of %d ops failed, were refused or were wrong)",
		float64(lr.failed)/float64(max(1, lr.attempted)), lr.failed, lr.attempted))
	rep.add("alloc_mb_per_op", float64(rt.allocBytes)/1e6/float64(max(1, done)), "MB",
		fmt.Sprintf("%.1f MB allocated over n=%d ops", float64(rt.allocBytes)/1e6, done))
	rep.add("live_heap_mb", (float64(live)-float64(inputs))/1e6, "MB",
		fmt.Sprintf("heap in use after a forced GC at the end of the window, less %.1f MB of benchmark inputs", float64(inputs)/1e6))
	rep.print()
	return &result{
		Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed,
		Metrics: rep.only(endToEnd),
	}, nil
}

// numWindows is how many windows the run is cut into for the windowed
// medians.
const numWindows = 10

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

func warnBeyond(n int) string {
	if n < minBeyond {
		return fmt.Sprintf(" (fewer than %d: read with care)", minBeyond)
	}
	return ""
}

// endToEnd are the metrics BENCHMARK.json bounds: those every workload has
// and that are never zero. The write-path latencies exist only on write_mix
// and error_rate is zero on a correct run, so they are printed, not bounded.
var endToEnd = []string{"setup_s", "throughput_ops", "query_p50_ms", "query_p90_ms", "alloc_mb_per_op", "live_heap_mb"}

// readRuntimeAfterGC starts a window from a collected heap.
func readRuntimeAfterGC() runtimeSample {
	liveHeapBytes()
	return readRuntime()
}

// report collects metrics in print order.
type report struct {
	names []string
	lines map[string]string
	vals  map[string]metric
}

func newReport() *report {
	return &report{lines: map[string]string{}, vals: map[string]metric{}}
}

func (r *report) add(name string, v float64, unit, note string) {
	r.names = append(r.names, name)
	r.vals[name] = metric{Value: v, Unit: unit}
	r.lines[name] = fmt.Sprintf("%-34s %14.6g %-6s %s", name, v, unit, note)
}

func (r *report) note(name, note string) {
	r.names = append(r.names, name)
	r.lines[name] = fmt.Sprintf("%-34s %14s %-6s %s", name, "-", "", note)
}

func (r *report) print() {
	for _, n := range r.names {
		fmt.Println(r.lines[n])
	}
}

// only returns the named metrics; a name the run did not measure is an
// error in the benchmark itself.
func (r *report) only(names []string) map[string]metric {
	out := map[string]metric{}
	var missing []string
	for _, n := range names {
		m, ok := r.vals[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		panic("perfbench: metrics not measured: " + strings.Join(missing, ", "))
	}
	return out
}
