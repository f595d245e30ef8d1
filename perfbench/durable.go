package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// checkFinalState runs write_mix's end-of-run checks on the live engine:
// every view equals a fresh evaluation of its text, and every relation has
// the size the clients' executed mutation prefixes imply (each batch
// changes exactly BatchPairs tuples). It returns the relation sizes and view
// row counts, keyed "rel:R" and "view:VP", for the recovery check.
func (b *bench) checkFinalState(eng *core.Engine, sent []int) (map[string]int, error) {
	ctx := context.Background()
	state := map[string]int{}
	for _, vs := range b.w.Views {
		v, ok := eng.View(vs.Name)
		if !ok {
			return nil, fmt.Errorf("view %s is missing", vs.Name)
		}
		cols, tuples, _, err := v.Result(ctx)
		if err != nil {
			return nil, fmt.Errorf("reading view %s: %w", vs.Name, err)
		}
		fresh, err := eng.QueryContext(ctx, vs.Query)
		if err != nil {
			return nil, fmt.Errorf("evaluating view %s's text: %w", vs.Name, err)
		}
		got, want := summarize(len(cols), tuples), summarize(len(fresh.Columns), fresh.Tuples)
		if got != want {
			return nil, fmt.Errorf("view %s holds %+v, a fresh query gives %+v", vs.Name, got, want)
		}
		state["view:"+vs.Name] = len(tuples)
	}
	want := map[string]int{}
	for _, name := range relationNames {
		want[name] = relation.FromPairs(name, b.rels[name]).Size()
	}
	for c, n := range sent {
		for _, o := range b.seqs[c][:n] {
			if o.kind != opMutate {
				continue
			}
			if o.del {
				want[o.rel] -= len(o.pairs)
			} else {
				want[o.rel] += len(o.pairs)
			}
		}
	}
	for _, name := range relationNames {
		r, ok := eng.Catalog().Get(name)
		if !ok {
			return nil, fmt.Errorf("relation %s is missing", name)
		}
		if r.Size() != want[name] {
			return nil, fmt.Errorf("relation %s has %d tuples, the executed mutations imply %d", name, r.Size(), want[name])
		}
		state["rel:"+name] = r.Size()
	}
	return state, nil
}

// checkRecovery copies the closed engine's data dir, opens the copy with
// Engine.Open and compares relation sizes and view row counts with state.
// It returns how long the Open took, in milliseconds.
func (b *bench) checkRecovery(dataDir string, state map[string]int) (float64, error) {
	dst := b.newDir()
	if err := copyDir(dataDir, dst); err != nil {
		return 0, fmt.Errorf("copying the data dir: %w", err)
	}
	eng := core.NewEngine(core.WithOptimizerConstants(b.spec.Constants))
	t0 := time.Now()
	if err := eng.Open(dst, core.PersistOptions{}); err != nil {
		return 0, fmt.Errorf("reopening the data dir: %w", err)
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	got := map[string]int{}
	for _, name := range relationNames {
		if r, ok := eng.Catalog().Get(name); ok {
			got["rel:"+name] = r.Size()
		}
	}
	for _, vs := range b.w.Views {
		if v, ok := eng.View(vs.Name); ok {
			got["view:"+vs.Name] = v.Rows()
		}
	}
	if err := eng.Close(); err != nil {
		return 0, err
	}
	for k, n := range state {
		if got[k] != n {
			return 0, fmt.Errorf("after reopening, %s has %d rows, before closing %d", k, got[k], n)
		}
	}
	return ms, nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
