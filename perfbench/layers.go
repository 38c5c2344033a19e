package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/opt"
	"recycledb/internal/plan"
	"recycledb/internal/sql"
)

// probeReps is how often each probe repeats a call; probes report medians.
const probeReps = 3

// runPlan times exec.Build and exec.Run of one resolved plan, bypassing the
// recycler, and returns the Run time.
func runPlan(cat *catalog.Catalog, p *plan.Node, tr *tracer, req uint64, label string) (time.Duration, error) {
	ctx := &exec.Ctx{Cat: cat, Context: context.Background(), Parallelism: runtime.GOMAXPROCS(0)}
	t0 := time.Now()
	op, err := exec.Build(ctx, p, nil, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: build: %w", label, err)
	}
	t1 := time.Now()
	if _, err := exec.Run(ctx, op); err != nil {
		return 0, fmt.Errorf("%s: run: %w", label, err)
	}
	t2 := time.Now()
	tr.add("exec.build", 0, req, t0, t1)
	tr.add("exec.run", 0, req, t1, t2)
	return t2.Sub(t1), nil
}

// planProbes runs each distinct statement's plan as written and as
// opt.Optimize shapes it, through exec.Build and exec.Run only. plans
// overrides the statements' own plans (SQL statements pass their bound
// compilations). It reports exec.pass_ms, the optimized pass, and the
// per-statement ratio of optimized to written Run time.
func planProbes(cat *catalog.Catalog, stmts []*stmt, plans []*plan.Node, tr *tracer) ([]metric, error) {
	rows := make(map[string]int64)
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		rows[name] = int64(t.Rows())
	}
	type line struct {
		label            string
		written, optimal time.Duration
	}
	var lines []line
	var pass time.Duration
	var ratios []float64
	for i, s := range stmts {
		src := s.plan
		if plans != nil {
			src = plans[i]
		}
		written := src.Clone()
		if err := written.Resolve(cat); err != nil {
			return nil, fmt.Errorf("%s: resolve: %w", s.label, err)
		}
		req := tr.id()
		t0 := time.Now()
		optimized, err := opt.Optimize(src.Clone(), &opt.Context{Cat: cat, TableRows: rows})
		if err != nil {
			return nil, fmt.Errorf("%s: optimize: %w", s.label, err)
		}
		tr.add("opt.optimize", 0, req, t0, time.Now())
		var wt, ot []float64
		for r := 0; r < probeReps; r++ {
			dw, err := runPlan(cat, written, tr, req, s.label)
			if err != nil {
				return nil, err
			}
			do, err := runPlan(cat, optimized, tr, req, s.label)
			if err != nil {
				return nil, err
			}
			wt, ot = append(wt, float64(dw)), append(ot, float64(do))
		}
		l := line{s.label, time.Duration(medianF(wt)), time.Duration(medianF(ot))}
		lines = append(lines, l)
		pass += l.optimal
		ratios = append(ratios, float64(l.optimal)/float64(l.written))
	}
	sort.Slice(lines, func(a, b int) bool {
		return float64(lines[a].optimal)/float64(lines[a].written) > float64(lines[b].optimal)/float64(lines[b].written)
	})
	fmt.Fprintln(os.Stderr, "perfbench: exec.Run time, optimized plan / plan as written:")
	for _, l := range lines {
		fmt.Fprintf(os.Stderr, "    %-32s written %9.3f ms  optimized %9.3f ms  ratio %6.2f\n", l.label,
			float64(l.written)/1e6, float64(l.optimal)/1e6, float64(l.optimal)/float64(l.written))
	}
	worst := 0.0
	for _, r := range ratios {
		worst = max(worst, r)
	}
	return []metric{
		{"exec.pass_ms", float64(pass) / 1e6, "ms"},
		{"opt.plan_ratio_max", worst, "ratio"},
		{"opt.plan_ratio_geomean", geomean(ratios), "ratio"},
	}, nil
}

// compileProbes compiles each SQL statement with sql.CompileTemplate and
// binds its arguments, returning the bound plans and sql.compile_us, the
// median compile time over statement texts.
func compileProbes(cat *catalog.Catalog, stmts []*stmt, tr *tracer) ([]*plan.Node, []metric, error) {
	var plans []*plan.Node
	var meds []float64
	for _, s := range stmts {
		var ts []float64
		var tmpl *sql.Template
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			t, err := sql.CompileTemplate(s.sql, cat)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: compile: %w", s.label, err)
			}
			t1 := time.Now()
			tr.add("sql.compile", 0, tr.id(), t0, t1)
			ts = append(ts, us(t1.Sub(t0)))
			tmpl = t
		}
		p, err := tmpl.Bind(s.args)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: bind: %w", s.label, err)
		}
		plans = append(plans, p)
		meds = append(meds, medianF(ts))
	}
	return plans, []metric{{"sql.compile_us", medianF(meds), "us"}}, nil
}
