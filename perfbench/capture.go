package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"recycledb"
	"recycledb/internal/core"
)

// op is one timed read in the measured window.
type op struct {
	stmt   int
	epoch  int
	lat    time.Duration
	digest uint64
}

// kept is an output retained for checking after the window.
type kept struct {
	stmt, epoch int
	res         *recycledb.Result // in-process output
	rows        [][]string        // wire output
}

// capture records a client's reads during the window. Checking is deferred:
// each output is digested, and only an output whose digest differs from
// the last one kept for the same statement and data epoch is retained. So
// every read's output is either checked itself or is identical to one that
// is, and the window pays for a digest and nothing more.
type capture struct {
	ops   []op
	kept  []kept
	lastD []uint64
	lastE []int
	// stats holds each in-process read's QueryStats in a traced window.
	stats []recycledb.QueryStats
	// rounds holds the duration of each whole round of the client's
	// sequence, which reads perRound statements.
	rounds   []time.Duration
	perRound int
}

// round records the end of a round that started at start.
func (c *capture) round(start time.Time, reads int) {
	c.rounds = append(c.rounds, time.Since(start))
	c.perRound = reads
}

func newCapture(nstmts int) *capture {
	c := &capture{ops: make([]op, 0, 1<<16), lastD: make([]uint64, nstmts), lastE: make([]int, nstmts)}
	for i := range c.lastE {
		c.lastE[i] = -1
	}
	return c
}

// add records one read; res or rows is its output.
func (c *capture) add(stmt, epoch int, lat time.Duration, d uint64, res *recycledb.Result, rows [][]string) {
	c.ops = append(c.ops, op{stmt, epoch, lat, d})
	if c.lastE[stmt] == epoch && c.lastD[stmt] == d {
		return
	}
	c.lastE[stmt], c.lastD[stmt] = epoch, d
	c.kept = append(c.kept, kept{stmt: stmt, epoch: epoch, res: res, rows: rows})
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	return h
}

func mixStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return mix(h, uint64(len(s)))
}

// digestResult is an FNV-1a digest of an in-process result's rows.
func digestResult(res *recycledb.Result) uint64 {
	h := uint64(fnvOffset)
	for _, b := range res.Batches {
		for r := 0; r < b.Len(); r++ {
			p := b.RowIdx(r)
			for _, v := range b.Vecs {
				switch {
				case v.F64 != nil:
					h = mix(h, math.Float64bits(v.F64[p]))
				case v.Str != nil:
					h = mixStr(h, v.Str[p])
				case v.I64 != nil:
					h = mix(h, uint64(v.I64[p]))
				case v.B != nil && v.B[p]:
					h = mix(h, 1)
				default:
					h = mix(h, 0)
				}
			}
		}
	}
	return h
}

// digestRows is an FNV-1a digest of a wire result's text rows.
func digestRows(rows [][]string) uint64 {
	h := uint64(fnvOffset)
	for _, r := range rows {
		for _, s := range r {
			h = mixStr(h, s)
		}
		h = mix(h, uint64(len(r)))
	}
	return h
}

// checker compares retained outputs with reference answers, computing each
// reference once per statement and data epoch.
type checker struct {
	stmts  []*stmt
	dbs    []*db // by epoch
	refs   map[[2]int]table
	failed int
}

func newChecker(stmts []*stmt, dbs []*db) *checker {
	return &checker{stmts: stmts, dbs: dbs, refs: make(map[[2]int]table)}
}

func (c *checker) ref(stmt, epoch int) table {
	k := [2]int{stmt, epoch}
	t, ok := c.refs[k]
	if !ok {
		t = c.stmts[stmt].ref(c.dbs[epoch])
		c.refs[k] = t
	}
	return t
}

// check compares one kept output and reports a mismatch on stderr.
func (c *checker) check(k kept) {
	want := c.ref(k.stmt, k.epoch)
	var got table
	var err error
	if k.res != nil {
		got = fromBatches(k.res.Schema, k.res.Batches)
	} else {
		got, err = fromText(want.kinds, k.rows)
	}
	if err == nil {
		err = compare(got, want, c.stmts[k.stmt].shape)
	}
	if err != nil {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: WRONG %s (epoch %d): %v\n", c.stmts[k.stmt].label, k.epoch, err)
		}
	}
}

// memStat reads one runtime/metrics counter.
func memStat(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// counters are process-wide runtime counters read at window edges.
type counters struct {
	allocs, bytes, gcs uint64
}

func readCounters() counters {
	return counters{
		allocs: memStat("/gc/heap/allocs:objects"),
		bytes:  memStat("/gc/heap/allocs:bytes"),
		gcs:    memStat("/gc/cycles/total:gc-cycles"),
	}
}

func (a counters) sub(b counters) counters {
	return counters{a.allocs - b.allocs, a.bytes - b.bytes, a.gcs - b.gcs}
}

// heapLiveMB forces collections and returns the live heap in MiB while
// eng is still reachable. The second collection empties what sync.Pools
// moved to their victim caches in the first.
func heapLiveMB(eng *recycledb.Engine) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(eng)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// window is what one measured window produced.
type window struct {
	elapsed time.Duration
	caps    []*capture
	// writes counts refresh writes; failed counts operations that
	// returned an error.
	writes, failed int
	counters       counters
	// rec0 and rec are the recycler's counters at a traced window's edges.
	rec0, rec core.Stats
}

func (w *window) reads() int {
	n := 0
	for _, c := range w.caps {
		n += len(c.ops)
	}
	return n
}

func (w *window) latencies() []time.Duration {
	var out []time.Duration
	for _, c := range w.caps {
		for _, o := range c.ops {
			out = append(out, o.lat)
		}
	}
	return out
}

// endToEnd computes the workload's end-to-end metrics from a window, all
// but heap_live_mb, which is read once the window is dropped.
func (w *window) endToEnd(nstmts int, setupS float64) []metric {
	lats := w.latencies()
	per := make([][]time.Duration, nstmts)
	for _, c := range w.caps {
		for _, o := range c.ops {
			per[o.stmt] = append(per[o.stmt], o.lat)
		}
	}
	var meds []float64
	for _, ds := range per {
		if len(ds) > 0 {
			meds = append(meds, us(quantile(ds, 0.5)))
		}
	}
	ops := float64(w.reads() + w.writes)
	return []metric{
		{"qps", w.qps(), "q/s"},
		{"lat_p50_us", us(quantile(lats, 0.5)), "us"},
		{"lat_p95_us", us(quantile(lats, 0.95)), "us"},
		{"stmt_geomean_us", geomean(meds), "us"},
		{"allocs_per_op", float64(w.counters.allocs) / ops, "count"},
		{"setup_s", setupS, "s"},
	}
}

// qps is the window's throughput: each client's reads per round over its
// median round time, summed over clients. The median keeps a round that a
// neighbour on the machine slowed from moving the figure.
func (w *window) qps() float64 {
	var q float64
	for _, c := range w.caps {
		if len(c.rounds) == 0 {
			continue
		}
		ds := make([]float64, len(c.rounds))
		for i, d := range c.rounds {
			ds[i] = d.Seconds()
		}
		q += float64(c.perRound) / medianF(ds)
	}
	return q
}

// perStmtMedians returns each statement's median latency in µs, by label.
func (w *window) perStmtMedians(stmts []*stmt) map[string]float64 {
	per := make([][]time.Duration, len(stmts))
	for _, c := range w.caps {
		for _, o := range c.ops {
			per[o.stmt] = append(per[o.stmt], o.lat)
		}
	}
	out := make(map[string]float64)
	for i, ds := range per {
		if len(ds) > 0 {
			out[stmts[i].label] = us(quantile(ds, 0.5))
		}
	}
	return out
}
