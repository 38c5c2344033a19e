package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/pgclient"
	"recycledb/internal/server"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
)

// serve: pgwire over loopback to an in-process server in Speculative mode
// (the server's default). serveClients connections run the dashboard and
// SkyServer SQL mix as prepared statements, each its own seeded order of
// the mix's 100-statement round, after every statement has run serveWarm
// times on every connection. The working set fits the recycler cache, so nearly
// every statement is a hit.
const (
	serveSF      = 0.02
	serveSky     = 20000
	serveClients = 2
	serveWarm    = 3
	replayReps   = 20
)

type serve struct {
	cat   *catalog.Catalog
	eng   *recycledb.Engine
	srv   *server.Server
	stop  context.CancelFunc
	done  chan struct{}
	conns []*pgclient.Conn
	list  []*stmt
	args  [][]string
	seqs  [][]int
	db    *db
	// srv0 and srv1 are the server's counters at the traced window's edges.
	srv0, srv1 server.Stats
}

func (s *serve) engine() *recycledb.Engine { return s.eng }
func (s *serve) stmts() []*stmt            { return s.list }

func (s *serve) setup(seed int64) error {
	s.cat = catalog.New()
	tpch.Generate(s.cat, serveSF, seed)
	skyserver.Load(s.cat, serveSky, seed)
	s.eng = recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative}, s.cat)
	s.srv = server.New(s.eng, server.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop, s.done = cancel, make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ctx, lis) // returns once drained; errors surface on the clients
	}()
	mix := serveMix()
	for _, m := range mix {
		s.list = append(s.list, m.s)
		s.args = append(s.args, textArgs(m.s.args))
	}
	for c := 0; c < serveClients; c++ {
		conn, err := pgclient.Dial(ctx, lis.Addr().String(), "perfbench")
		if err != nil {
			return err
		}
		s.conns = append(s.conns, conn)
		for i, st := range s.list {
			if err := conn.Prepare(fmt.Sprintf("s%d", i), wireSQL(st.sql)); err != nil {
				return fmt.Errorf("prepare %s: %w", st.label, err)
			}
		}
		s.seqs = append(s.seqs, sequence(mix, rand.New(rand.NewSource(seed+2+int64(c)))))
	}
	for r := 0; r < serveWarm; r++ {
		for _, conn := range s.conns {
			for i, st := range s.list {
				if _, err := conn.Exec(fmt.Sprintf("s%d", i), s.args[i]...); err != nil {
					return fmt.Errorf("warm-up %s: %w", st.label, err)
				}
			}
		}
	}
	s.db = snapshotDB(s.cat)
	return nil
}

func (s *serve) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.stop != nil {
		s.stop()
		<-s.done
	}
}

func (s *serve) run(d time.Duration, tr *tracer) (*window, error) {
	names := make([]string, len(s.list))
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	w := &window{}
	failed := make([]int, len(s.conns))
	var wg sync.WaitGroup
	if tr != nil {
		s.srv0 = s.srv.Stats()
	}
	start := time.Now()
	for c, conn := range s.conns {
		cp := newCapture(len(s.list))
		w.caps = append(w.caps, cp)
		wg.Add(1)
		go func(c int, conn *pgclient.Conn, cp *capture) {
			defer wg.Done()
			for time.Since(start) < d {
				r0 := time.Now()
				for _, i := range s.seqs[c] {
					t0 := time.Now()
					res, err := conn.Exec(names[i], s.args[i]...)
					t1 := time.Now()
					if err != nil {
						failed[c]++
						continue
					}
					tr.add("pgwire.roundtrip", 0, tr.id(), t0, t1)
					cp.add(i, 0, t1.Sub(t0), digestRows(res.Rows), nil, res.Rows)
				}
				cp.round(r0, len(s.seqs[c]))
			}
		}(c, conn, cp)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	if tr != nil {
		s.srv1 = s.srv.Stats()
	}
	for _, f := range failed {
		w.failed += f
	}
	return w, nil
}

func (s *serve) check(w *window) int {
	return checkWindow(w, newChecker(s.list, []*db{s.db}))
}

func (s *serve) layers(untraced, traced *window, tr *tracer) ([]metric, error) {
	plans, ms, err := compileProbes(s.cat, s.list, tr)
	if err != nil {
		return nil, err
	}
	pm, err := planProbes(s.cat, s.list, plans, tr)
	if err != nil {
		return nil, err
	}
	ms = append(ms, pm...)
	// Replay the statements in-process through Stmt.Query and its drain:
	// the engine's share of a wire round trip.
	var lats []time.Duration
	var stats []recycledb.QueryStats
	c0 := readCounters()
	for _, st := range s.list {
		ps, err := s.eng.Prepare(st.sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", st.label, err)
		}
		args := anyArgs(st.args)
		for r := 0; r < replayReps; r++ {
			req := tr.id()
			t0 := time.Now()
			rows, err := ps.Query(context.Background(), args...)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", st.label, err)
			}
			t1 := time.Now()
			res, err := rows.Collect()
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", st.label, err)
			}
			t2 := time.Now()
			tr.add("stmt.query", 0, req, t0, t1)
			tr.add("rows.drain", 0, req, t1, t2)
			lats = append(lats, t2.Sub(t0))
			stats = append(stats, res.Stats)
		}
	}
	allocs := readCounters().sub(c0).allocs
	hit := us(quantile(lats, 0.5))
	var match []float64
	for _, st := range stats {
		match = append(match, us(st.Matching))
	}
	wire := us(quantile(traced.latencies(), 0.5))
	return append(ms,
		metric{"engine.hit_us", hit, "us"},
		metric{"engine.hit_allocs", float64(allocs) / float64(len(lats)), "count"},
		metric{"engine.overhead_us", engineOverhead(stats), "us"},
		metric{"core.match_us", medianF(match), "us"},
		metric{"server.overhead_us", wire - hit, "us"},
		metric{"server.admission_waits", float64(s.srv1.AdmissionWaits - s.srv0.AdmissionWaits), "count"},
	), nil
}
