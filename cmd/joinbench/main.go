// Command joinbench regenerates the paper's tables and figures, snapshots
// kernel performance, and benchmarks end-to-end text-query evaluation.
//
// Usage:
//
//	joinbench -list
//	joinbench -experiment fig4a -scale 0.5
//	joinbench -experiment all  -scale 0.25
//	joinbench -json                                  # kernel snapshot
//	joinbench -json -baseline BENCH_kernels.json     # + regression gate
//	joinbench -query "Q(x, z) :- R(x, y), S(y, z)"   # query pipeline bench
//	joinbench -query suite                           # canned query suite
//	joinbench -query suite -query-baseline BENCH_queries.json  # + e2e gate
//	joinbench -views                                 # view maintenance bench
//	joinbench -views -views-baseline BENCH_views.json  # + maintenance gate
//	joinbench -recovery                              # replay-vs-recompute bench
//	joinbench -query-overhead                        # per-query bookkeeping overhead gate
//
// Each experiment prints the same rows/series the paper's corresponding
// table or figure reports (dataset × algorithm × running time, or a
// parameter sweep). Scale rescales the synthetic dataset shapes; see
// DESIGN.md for the dataset substitution rationale.
//
// -query measures parse, compile (plan + semijoin reduction) and full
// parse+plan+execute times (min-of-reps) for one query string — or the
// canned suite with "suite" — against a synthetic catalog (relations R, S,
// T, U, V sized by -scale), and merges the results into BENCH_queries.json.
// With -query-baseline, the fresh end-to-end times are gated against a
// committed snapshot exactly like the kernel gate.
//
// -recovery builds a durable serving state (relations + views + a logged
// mutation stream, with and without a mid-stream checkpoint), then times a
// cold Engine.Open (snapshot load + WAL replay through incremental view
// maintenance) against recomputing the same state from scratch, writing
// BENCH_recovery.json.
//
// With -json, -baseline compares the fresh kernel measurements against a
// committed snapshot and exits non-zero when any benchmark regressed by more
// than -tolerance (the CI regression gate).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("experiment", "", "experiment id (e.g. fig4a), or 'all'")
		scale      = flag.Float64("scale", 0.5, "dataset scale factor")
		list       = flag.Bool("list", false, "list available experiments")
		csv        = flag.Bool("csv", false, "emit CSV rows instead of tables")
		jsonOut    = flag.Bool("json", false, "measure the matrix kernels and write a BENCH_kernels.json snapshot")
		baseline   = flag.String("baseline", "", "with -json: compare against this snapshot and fail on regressions")
		tolerance  = flag.Float64("tolerance", 0.10, "with -baseline: allowed ns/op regression fraction")
		queryStr   = flag.String("query", "", "benchmark end-to-end query evaluation: a query string, or 'suite'")
		queryBase  = flag.String("query-baseline", "", "with -query: gate end-to-end times against this BENCH_queries.json snapshot")
		viewsMode  = flag.Bool("views", false, "benchmark incremental view maintenance vs full recompute; writes BENCH_views.json")
		viewsBase  = flag.String("views-baseline", "", "with -views: gate per-batch maintenance times against this BENCH_views.json snapshot")
		recovery   = flag.Bool("recovery", false, "benchmark crash recovery (snapshot + WAL replay) vs recompute; writes BENCH_recovery.json")
		overhead   = flag.Bool("query-overhead", false, "measure per-query bookkeeping overhead (Engine.QueryContext vs bare prepare+execute, back-to-back) over the query suite")
		overBudget = flag.Float64("overhead-budget", 0.02, "with -query-overhead: fail when the bookkeeping overhead fraction exceeds this")
	)
	flag.Parse()

	if *overhead {
		runOverheadBench(*scale, *overBudget)
		if *exp == "" && !*list && !*jsonOut && !*viewsMode && !*recovery && *queryStr == "" {
			return
		}
	}

	if *queryStr != "" {
		runQueryBench(*queryStr, *scale, *queryBase, *tolerance)
		if *exp == "" && !*list && !*jsonOut && !*viewsMode && !*recovery {
			return
		}
	}

	if *viewsMode {
		runViewBench(*scale, *viewsBase, *tolerance)
		if *exp == "" && !*list && !*jsonOut && !*recovery {
			return
		}
	}

	if *recovery {
		runRecoveryBench(*scale)
		if *exp == "" && !*list && !*jsonOut {
			return
		}
	}

	if *jsonOut {
		// Read the baseline before measuring: the snapshot overwrites it.
		var base []byte
		if *baseline != "" {
			var err error
			base, err = os.ReadFile(*baseline)
			if err != nil {
				fmt.Fprintln(os.Stderr, "joinbench:", err)
				os.Exit(1)
			}
		}
		snap, err := experiments.KernelBenchSnapshot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile("BENCH_kernels.json", snap, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_kernels.json")
		if base != nil {
			regs, err := experiments.CompareKernelSnapshots(base, snap, *tolerance)
			if err != nil {
				fmt.Fprintln(os.Stderr, "joinbench:", err)
				os.Exit(1)
			}
			if len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "joinbench: %d kernel regression(s) beyond %.0f%% vs %s:\n",
					len(regs), *tolerance*100, *baseline)
				for _, r := range regs {
					fmt.Fprintln(os.Stderr, "  "+r.String())
				}
				os.Exit(1)
			}
			fmt.Printf("no regressions beyond %.0f%% vs %s\n", *tolerance*100, *baseline)
		}
		if *exp == "" && !*list {
			return
		}
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-8s %s\n", id, experiments.Title(id))
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	if *csv {
		fmt.Println("experiment,dataset,series,param,seconds,extra")
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
		if *csv {
			res.RenderCSV(os.Stdout)
			continue
		}
		res.Render(os.Stdout)
		fmt.Printf("-- %s completed in %v (scale %g)\n\n", id, time.Since(start).Round(time.Millisecond), *scale)
	}
}

// runViewBench measures the canned view-maintenance suite (register views,
// stream update batches, time maintenance vs full recompute; min-of-reps),
// writes BENCH_views.json, and — when a baseline snapshot is given — gates
// the per-batch maintenance times against it.
func runViewBench(scale float64, baseline string, tolerance float64) {
	// Read the baseline before measuring: the snapshot overwrites the file.
	var base []byte
	if baseline != "" {
		var err error
		base, err = os.ReadFile(baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
	}
	snap, err := experiments.ViewBenchSnapshot(scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_views.json", snap, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	table, err := experiments.RenderViewSnapshot(snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	fmt.Print(table)
	fmt.Println("wrote BENCH_views.json")
	if base != nil {
		regs, err := experiments.CompareViewSnapshots(base, snap, tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "joinbench: %d view maintenance regression(s) beyond %.0f%% vs %s:\n",
				len(regs), tolerance*100, baseline)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r.String())
			}
			os.Exit(1)
		}
		fmt.Printf("no view maintenance regressions beyond %.0f%% vs %s\n", tolerance*100, baseline)
	}
}

// runQueryBench measures one query (or the canned suite), merges the
// results into BENCH_queries.json, and — when a baseline snapshot is given —
// gates the end-to-end times against it.
func runQueryBench(q string, scale float64, baseline string, tolerance float64) {
	queries := []string{q}
	if q == "suite" {
		queries = experiments.DefaultQuerySuite()
	}
	// Read the baseline before measuring: the snapshot overwrites the file.
	var base []byte
	if baseline != "" {
		var err error
		base, err = os.ReadFile(baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
	}
	prev, _ := os.ReadFile("BENCH_queries.json")
	snap, err := experiments.QueryBenchSnapshot(queries, scale, prev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_queries.json", snap, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	table, err := experiments.RenderQuerySnapshot(snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	fmt.Print(table)
	fmt.Println("wrote BENCH_queries.json")
	if base != nil {
		regs, err := experiments.CompareQuerySnapshots(base, snap, tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinbench:", err)
			os.Exit(1)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "joinbench: %d query e2e regression(s) beyond %.0f%% vs %s:\n",
				len(regs), tolerance*100, baseline)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r.String())
			}
			os.Exit(1)
		}
		fmt.Printf("no query regressions beyond %.0f%% vs %s\n", tolerance*100, baseline)
	}
}

// runOverheadBench measures the per-query bookkeeping overhead: the query
// suite runs back-to-back through Engine.QueryContext and through bare
// prepare+execute (min-of-reps on both sides) and the suite-weighted ratio
// is gated against the budget.
func runOverheadBench(scale, budget float64) {
	rep, err := experiments.QueryOverhead(experiments.DefaultQuerySuite(), scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%-55s %14s %14s %8s\n", "query", "baseline ns", "instrumented", "ratio")
	for _, row := range rep.PerQuery {
		fmt.Printf("%-55s %14d %14d %7.3f×\n", row.Query, row.BaselineNs, row.InstrumentedNs, row.Ratio)
	}
	fmt.Printf("%-55s %14d %14d %7.3f×\n", "suite total", rep.BaselineNs, rep.InstrumentedNs, rep.Ratio)
	over := rep.Ratio - 1
	if over > budget {
		fmt.Fprintf(os.Stderr, "joinbench: bookkeeping overhead %.2f%% exceeds budget %.2f%%\n",
			over*100, budget*100)
		os.Exit(1)
	}
	fmt.Printf("bookkeeping overhead %.2f%% within budget %.2f%%\n", over*100, budget*100)
}

// runRecoveryBench measures replay-vs-recompute and writes
// BENCH_recovery.json.
func runRecoveryBench(scale float64) {
	snap, err := experiments.RecoveryBenchSnapshot(scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_recovery.json", snap, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	table, err := experiments.RenderRecoverySnapshot(snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
	fmt.Print(table)
	fmt.Println("wrote BENCH_recovery.json")
}
