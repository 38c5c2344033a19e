package main

import (
	"fmt"
	"math/rand"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/tpch"
)

// churn: in-process, Speculative, one client. A round is two epochs of
// churnPasses passes over the dashboard plan mix (every statement at least
// eight times per epoch), the first ended by an RF1 append, the second by
// an RF2 delete. Writes beside reads exercise the recycler's commit-time
// invalidation walk, delta extension of cached results, and recomputation
// after delete epochs. With several reads of each statement per epoch, a
// statement's median is its hit latency, not a coin toss between its first
// read after a write and the rest. Recomputations after a delete are long
// parallel queries that slow most when the machine is shared; the small
// scale factor and the passes keep them to about half of a round's time.
const (
	churnSF     = 0.005
	churnPasses = 4
)

type churn struct {
	cat  *catalog.Catalog
	eng  *recycledb.Engine
	list []*stmt
	seq  []int
	rf   *refresher
	// dbs holds the snapshot of every data epoch reads saw; epoch is the
	// current one's index.
	dbs   []*db
	epoch int
}

func (c *churn) engine() *recycledb.Engine { return c.eng }
func (c *churn) stmts() []*stmt            { return c.list }
func (c *churn) close()                    {}

func (c *churn) setup(seed int64) error {
	c.cat = catalog.New()
	tpch.Generate(c.cat, churnSF, seed)
	c.eng = recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative}, c.cat)
	mix := dashboardMix(false)
	for i := range mix {
		c.list = append(c.list, mix[i].s)
		mix[i].w *= churnPasses
	}
	// The read order is fixed: where a read falls between two writes
	// decides whether it can hit, so a seeded order would change the work.
	c.seq = sequence(mix, rand.New(rand.NewSource(paramSeed)))
	rf, err := newRefresher(c.cat, seed+3)
	if err != nil {
		return err
	}
	c.rf = rf
	// Warm-up: one round of reads, so the recycler has seen the mix.
	for _, i := range c.seq {
		if _, _, err := execPlan(c.eng, c.list[i], nil, 0); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.list[i].label, err)
		}
	}
	c.dbs = []*db{snapshotDB(c.cat)}
	return nil
}

func (c *churn) newEpoch() {
	c.dbs = append(c.dbs, snapshotDB(c.cat))
	c.epoch = len(c.dbs) - 1
}

func (c *churn) run(d time.Duration, tr *tracer) (*window, error) {
	cp := newCapture(len(c.list))
	w := &window{caps: []*capture{cp}}
	c.rf.commits = nil
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		for _, write := range []func(*tracer) error{c.rf.rf1, c.rf.rf2} {
			for _, i := range c.seq {
				readPlan(c.eng, c.list[i], i, c.epoch, cp, w, tr)
			}
			if err := write(tr); err != nil {
				return nil, err
			}
			w.writes++
			c.newEpoch()
		}
		cp.round(t0, 2*len(c.seq))
	}
	w.elapsed = time.Since(start)
	return w, nil
}

// check checks a window's outputs, then releases the snapshots of the
// epochs it read, all but the current one, so the client's memory does
// not grow with the number of epochs a run gets through.
func (c *churn) check(w *window) int {
	wrong := checkWindow(w, newChecker(c.list, c.dbs))
	for _, cp := range w.caps {
		for _, o := range cp.ops {
			if o.epoch != c.epoch {
				c.dbs[o.epoch] = nil
			}
		}
	}
	return wrong
}

func (c *churn) layers(untraced, traced *window, tr *tracer) ([]metric, error) {
	ms, err := planProbes(c.cat, c.list, nil, tr)
	if err != nil {
		return nil, err
	}
	commits := float64(len(c.rf.commits))
	a, b := traced.rec0, traced.rec
	return append(ms,
		metric{"engine.overhead_us", engineOverhead(traced.caps[0].stats), "us"},
		metric{"catalog.commit_us", us(quantile(c.rf.commits, 0.5)), "us"},
		metric{"catalog.commit_p95_us", us(quantile(c.rf.commits, 0.95)), "us"},
		metric{"core.invalidated_per_commit", float64(b.Invalidated-a.Invalidated) / commits, "count"},
		metric{"core.delta_extended_per_commit", float64(b.DeltaExtended-a.DeltaExtended) / commits, "count"},
	), nil
}
