package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
)

// cold: in-process, recycling Off, one client. Each pass runs every TPC-H
// pattern (one parameter draw each) and every distinct SkyServer plan, in a
// seeded order. Off mode leaves plans to plan, opt and exec alone.
const (
	coldSF  = 0.02
	coldSky = 20000
)

type cold struct {
	cat   *catalog.Catalog
	eng   *recycledb.Engine
	list  []*stmt
	order []int
	db    *db
}

func (c *cold) engine() *recycledb.Engine { return c.eng }
func (c *cold) stmts() []*stmt            { return c.list }
func (c *cold) close()                    {}

func (c *cold) setup(seed int64) error {
	c.cat = catalog.New()
	tpch.Generate(c.cat, coldSF, seed)
	skyserver.Load(c.cat, coldSky, seed)
	c.eng = recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Off}, c.cat)
	c.list = coldStmts()
	c.order = rand.New(rand.NewSource(seed + 2)).Perm(len(c.list))
	for _, i := range c.order {
		if _, _, err := execPlan(c.eng, c.list[i], nil, 0); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.list[i].label, err)
		}
	}
	c.db = snapshotDB(c.cat)
	return nil
}

func (c *cold) run(d time.Duration, tr *tracer) (*window, error) {
	cp := newCapture(len(c.list))
	w := &window{caps: []*capture{cp}}
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		for _, i := range c.order {
			readPlan(c.eng, c.list[i], i, 0, cp, w, tr)
		}
		cp.round(t0, len(c.order))
	}
	w.elapsed = time.Since(start)
	return w, nil
}

func (c *cold) check(w *window) int {
	return checkWindow(w, newChecker(c.list, []*db{c.db}))
}

func (c *cold) layers(untraced, traced *window, tr *tracer) ([]metric, error) {
	ms, err := planProbes(c.cat, c.list, nil, tr)
	if err != nil {
		return nil, err
	}
	return append(ms, metric{"engine.overhead_us", engineOverhead(traced.caps[0].stats), "us"}), nil
}

// execPlan runs one plan statement in-process and materializes its
// output: Engine.Stream, then the drain. With a tracer it records both
// calls as spans of request req.
func execPlan(eng *recycledb.Engine, s *stmt, tr *tracer, req uint64) (*recycledb.Result, time.Duration, error) {
	t0 := time.Now()
	rows, err := eng.Stream(context.Background(), s.plan)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	res, err := rows.Collect()
	t2 := time.Now()
	if tr != nil {
		root := tr.id()
		tr.add("engine.stream", root, req, t0, t1)
		tr.add("rows.drain", root, req, t1, t2)
		tr.addID(root, "read", 0, req, t0, t2)
	}
	return res, t2.Sub(t0), err
}

// readPlan is one measured in-process read.
func readPlan(eng *recycledb.Engine, s *stmt, i, epoch int, cp *capture, w *window, tr *tracer) {
	res, lat, err := execPlan(eng, s, tr, tr.id())
	if err != nil {
		w.failed++
		return
	}
	cp.add(i, epoch, lat, digestResult(res), res, nil)
	if tr != nil {
		cp.stats = append(cp.stats, res.Stats)
	}
}

// checkWindow checks every kept output of a window and returns the number
// that were wrong.
func checkWindow(w *window, ck *checker) int {
	for _, cp := range w.caps {
		for _, k := range cp.kept {
			ck.check(k)
		}
	}
	return ck.failed
}
