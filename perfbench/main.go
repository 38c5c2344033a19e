// Command perfbench is recycledb's benchmark: three closed-loop workloads
// against the engine's default configuration, each output checked against
// a reference computed apart from the engine. See README.md.
//
//	perfbench --workload cold|serve|churn --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: whether every
// checked output was correct, the operations attempted and failed, and the
// metrics (end-to-end with --trace 0, per-layer with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"recycledb"
)

// layerMetrics is every per-layer metric a traced run prints, with its
// unit. A metric that does not apply to a workload (the server's on cold,
// commits on serve) reads 0; README.md lists which apply where.
var layerMetrics = []struct{ name, unit string }{
	{"catalog.commit_p95_us", "us"},
	{"catalog.commit_us", "us"},
	{"core.admissions_per_kop", "count"},
	{"core.cache_mb", "MB"},
	{"core.delta_extended_per_commit", "count"},
	{"core.evictions_per_kop", "count"},
	{"core.hit_ratio", "ratio"},
	{"core.invalidated_per_commit", "count"},
	{"core.match_us", "us"},
	{"engine.hit_allocs", "count"},
	{"engine.hit_us", "us"},
	{"engine.overhead_us", "us"},
	{"exec.pass_ms", "ms"},
	{"opt.plan_ratio_geomean", "ratio"},
	{"opt.plan_ratio_max", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_kop", "count"},
	{"server.admission_waits", "count"},
	{"server.overhead_us", "us"},
	{"sql.compile_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// setupReps is how many times a --trace 0 run sets its workload up; setup_s
// is the median.
const setupReps = 5

type metric struct {
	name  string
	value float64
	unit  string
}

// bench is one workload. setup builds the catalog, engine and (for serve)
// server and warms them; run measures whole rounds of the workload's fixed
// operation sequence until d has passed; layers runs the per-layer probes
// of a traced run.
type bench interface {
	setup(seed int64) error
	engine() *recycledb.Engine
	stmts() []*stmt
	run(d time.Duration, tr *tracer) (*window, error)
	check(w *window) int
	layers(untraced, traced *window, tr *tracer) ([]metric, error)
	close()
}

func newBench(name string) (bench, error) {
	switch name {
	case "cold":
		return &cold{}, nil
	case "serve":
		return &serve{}, nil
	case "churn":
		return &churn{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold, serve or churn)", name)
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func main() {
	name := flag.String("workload", "", "workload: cold, serve or churn")
	seed := flag.Int64("seed", 1, "seed of the data and of the operation sequence")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := newBench(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*name, *seed, d, *traceDir)
	} else {
		res, err = runPlain(*name, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
	}
	ms := make(map[string]any)
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	buf, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// runPlain is the untraced run: set up setupReps times, measure one window
// on the last set-up, check every output, report end-to-end metrics.
func runPlain(name string, seed int64, d time.Duration) (*result, error) {
	var b bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		// Each set-up starts from a collected heap, so the garbage of the
		// previous one does not land in its time.
		b = nil
		runtime.GC()
		b, _ = newBench(name)
		t0 := time.Now()
		if err := b.setup(seed); err != nil {
			b.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups took %.3f s\n", setups)
	defer b.close()
	c0 := readCounters()
	w, err := b.run(d, nil)
	if err != nil {
		return nil, err
	}
	w.counters = readCounters().sub(c0)
	t0 := time.Now()
	wrong := b.check(w)
	fmt.Fprintf(os.Stderr, "perfbench: checked in %.2fs\n", time.Since(t0).Seconds())
	res := &result{
		correct:   wrong == 0,
		attempted: w.reads() + w.writes + w.failed,
		failed:    w.failed,
		metrics:   w.endToEnd(len(b.stmts()), medianF(setups)),
	}
	report(os.Stderr, name, b, w, res)
	// The live heap is the engine's: the window's records and the outputs
	// kept for checking are dropped first.
	w.caps = nil
	res.metrics = append(res.metrics, metric{"heap_live_mb", heapLiveMB(b.engine()), "MB"})
	fmt.Fprintf(os.Stderr, "  heap_live_mb %.4f MB\n", res.metrics[len(res.metrics)-1].value)
	return res, nil
}

// runTraced is the traced run: one set-up, an untraced half window, a
// traced half window, then the per-layer probes.
func runTraced(name string, seed int64, d time.Duration, dir string) (*result, error) {
	b, _ := newBench(name)
	defer b.close()
	if err := b.setup(seed); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	c0 := readCounters()
	untraced, err := b.run(d/2, nil)
	if err != nil {
		return nil, err
	}
	untraced.counters = readCounters().sub(c0)
	tr := newTracer()
	r0 := b.engine().Recycler().Stats()
	traced, err := b.run(d/2, tr)
	if err != nil {
		return nil, err
	}
	traced.rec = b.engine().Recycler().Stats()
	traced.rec0 = r0
	wrong := b.check(untraced) + b.check(traced)
	ms, err := b.layers(untraced, traced, tr)
	if err != nil {
		return nil, err
	}
	ms = append(ms, coreMetrics(traced)...)
	ms = append(ms, runtimeMetrics(untraced)...)
	ms = append(ms, metric{"trace.overhead_ratio", traced.qps() / untraced.qps(), "ratio"})
	have := make(map[string]bool)
	for _, m := range ms {
		have[m.name] = true
	}
	for _, l := range layerMetrics {
		if !have[l.name] {
			ms = append(ms, metric{l.name, 0, l.unit})
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	if path, err := tr.write(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	for _, m := range ms {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return &result{
		correct:   wrong == 0,
		attempted: untraced.reads() + untraced.writes + untraced.failed + traced.reads() + traced.writes + traced.failed,
		failed:    untraced.failed + traced.failed,
		metrics:   ms,
	}, nil
}

// coreMetrics reads the recycler's counters over the traced window.
func coreMetrics(w *window) []metric {
	a, b := w.rec0, w.rec
	kops := float64(w.reads()+w.writes) / 1000
	hits := float64((b.Reuses - a.Reuses) + (b.SubsumptionReuse - a.SubsumptionReuse) + (b.InflightShared - a.InflightShared))
	ratio := 0.0
	if q := float64(w.reads()); q > 0 {
		ratio = hits / q
	}
	var match []float64
	for _, c := range w.caps {
		for _, s := range c.stats {
			match = append(match, us(s.Matching))
		}
	}
	ms := []metric{
		{"core.hit_ratio", ratio, "ratio"},
		{"core.cache_mb", float64(b.CacheBytes) / (1 << 20), "MB"},
		{"core.admissions_per_kop", float64(b.Admissions-a.Admissions) / kops, "count"},
		{"core.evictions_per_kop", float64(b.Evictions-a.Evictions) / kops, "count"},
	}
	if len(match) > 0 {
		ms = append(ms, metric{"core.match_us", medianF(match), "us"})
	}
	return ms
}

// runtimeMetrics reads the Go runtime's counters over the untraced window.
func runtimeMetrics(w *window) []metric {
	ops := float64(w.reads() + w.writes)
	return []metric{
		{"runtime.gc_per_kop", float64(w.counters.gcs) / ops * 1000, "count"},
		{"runtime.alloc_kb_per_op", float64(w.counters.bytes) / ops / 1024, "KB"},
	}
}

// engineOverhead is the median QueryStats.Total − Matching − Execution: the
// engine's own time around the recycler and the executor.
func engineOverhead(stats []recycledb.QueryStats) float64 {
	var xs []float64
	for _, s := range stats {
		xs = append(xs, us(s.Total-s.Matching-s.Execution))
	}
	return medianF(xs)
}

// report prints a human-readable summary of a plain run to f.
func report(f *os.File, name string, b bench, w *window, res *result) {
	fmt.Fprintf(f, "perfbench %s: %d reads, %d writes, %d failed, %d outputs checked in full, correct=%t, window %.2fs, %.1f reads/s overall\n",
		name, w.reads(), w.writes, w.failed, w.keptCount(), res.correct, w.elapsed.Seconds(), float64(w.reads())/w.elapsed.Seconds())
	for _, m := range res.metrics {
		fmt.Fprintf(f, "  %-18s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for i, c := range w.caps {
		fmt.Fprintf(f, "  client %d: %d rounds, round time p10 %.1f ms, p50 %.1f ms, p90 %.1f ms\n", i, len(c.rounds),
			float64(quantile(c.rounds, 0.1))/1e6, float64(quantile(c.rounds, 0.5))/1e6, float64(quantile(c.rounds, 0.9))/1e6)
	}
	meds := w.perStmtMedians(b.stmts())
	labels := make([]string, 0, len(meds))
	for l := range meds {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(f, "    %-32s p50 %10.1f us\n", l, meds[l])
	}
}

func (w *window) keptCount() int {
	n := 0
	for _, c := range w.caps {
		n += len(c.kept)
	}
	return n
}
