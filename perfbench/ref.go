package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

// Reference evaluators. Each statement pattern is answered row at a time in
// plain Go over catalog snapshots, from the pattern's parameters alone: no
// plan tree is walked and nothing that plans or executes is imported, so a
// fault in the engine cannot also hide in the answer it is checked against.

// db is a set of table snapshots taken at one point: the state a statement
// read.
type db struct {
	snaps map[string]*catalog.Snapshot
}

func snapshotDB(cat *catalog.Catalog) *db {
	d := &db{snaps: make(map[string]*catalog.Snapshot)}
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			panic(err) // listed a moment ago; tables are never dropped
		}
		d.snaps[name] = t.Snapshot()
	}
	return d
}

// tbl reads one snapshot column by column.
type tbl struct{ s *catalog.Snapshot }

func (d *db) tab(name string) tbl {
	s, ok := d.snaps[name]
	if !ok {
		panic(fmt.Sprintf("reference: no table %q", name))
	}
	return tbl{s}
}

func (t tbl) n() int          { return t.s.Rows }
func (t tbl) dead(r int) bool { return t.s.Deleted(r) }
func (t tbl) col(c string) int {
	i := t.s.Schema.ColIndex(c)
	if i < 0 {
		panic(fmt.Sprintf("reference: no column %q", c))
	}
	return i
}
func (t tbl) i(c string) []int64    { return t.s.Col(t.col(c)).I64 }
func (t tbl) f(c string) []float64  { return t.s.Col(t.col(c)).F64 }
func (t tbl) str(c string) []string { return t.s.Col(t.col(c)).Str }

func addMonths(days int64, months int) int64 {
	return time.Unix(days*86400, 0).UTC().AddDate(0, months, 0).Unix() / 86400
}

func addYears(days int64, years int) int64 {
	return time.Unix(days*86400, 0).UTC().AddDate(years, 0, 0).Unix() / 86400
}

func yearOf(days int64) int64 { return int64(time.Unix(days*86400, 0).UTC().Year()) }

// like matches SQL LIKE patterns with % and _ wildcards.
func like(s, pat string) bool {
	if pat == "" {
		return s == ""
	}
	switch pat[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if like(s[i:], pat[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && like(s[1:], pat[1:])
	}
	return s != "" && s[0] == pat[0] && like(s[1:], pat[1:])
}

func rev(price, disc float64) float64 { return price * (1 - disc) }

// sortRows orders rows by keys and truncates to limit (0 keeps all).
func sortRows(rows [][]val, keys []sortKey, limit int) [][]val {
	sort.SliceStable(rows, func(a, b int) bool { return orderCmp(rows[a], rows[b], keys) < 0 })
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// nations maps nation keys to names and region names.
type nations struct {
	name   map[int64]string
	region map[int64]string
}

func loadNations(d *db) nations {
	r := d.tab("region")
	rname := make(map[int64]string)
	for i, k := range r.i("r_regionkey") {
		if !r.dead(i) {
			rname[k] = r.str("r_name")[i]
		}
	}
	n := d.tab("nation")
	out := nations{name: make(map[int64]string), region: make(map[int64]string)}
	keys, names, regs := n.i("n_nationkey"), n.str("n_name"), n.i("n_regionkey")
	for i := range keys {
		if !n.dead(i) {
			out.name[keys[i]] = names[i]
			out.region[keys[i]] = rname[regs[i]]
		}
	}
	return out
}

// tpchShape is the ORDER BY of each TPC-H pattern's plan, by output column.
var tpchShape = map[int]shape{
	1:  {order: []sortKey{{0, false}, {1, false}}},
	2:  {order: []sortKey{{0, true}, {2, false}, {1, false}, {3, false}}},
	3:  {order: []sortKey{{3, true}, {1, false}}},
	4:  {order: []sortKey{{0, false}}},
	5:  {order: []sortKey{{1, true}}},
	7:  {order: []sortKey{{0, false}, {1, false}, {2, false}}},
	8:  {order: []sortKey{{0, false}}},
	9:  {order: []sortKey{{0, false}, {1, true}}},
	10: {order: []sortKey{{5, true}}},
	11: {order: []sortKey{{1, true}}},
	12: {order: []sortKey{{0, false}}},
	13: {order: []sortKey{{1, true}, {0, true}}},
	15: {order: []sortKey{{0, false}}},
	16: {order: []sortKey{{3, true}, {0, false}, {1, false}, {2, false}}},
	18: {order: []sortKey{{4, true}, {3, false}}},
	20: {order: []sortKey{{0, false}}},
	21: {order: []sortKey{{1, true}, {0, false}}},
	22: {order: []sortKey{{0, false}}},
}

// refTPCH answers the plan tpch.Build(p) builds.
func refTPCH(d *db, p tpch.Params) table {
	switch p.Q {
	case 1:
		return refQ1(d, p.Date)
	case 2:
		return refQ2(d, p)
	case 3:
		return refQ3(d, p.Str1, p.Date, p.Date, true)
	case 4:
		return refQ4(d, p)
	case 5:
		return refQ5(d, p)
	case 6:
		return refQ6(d, p.Date, addYears(p.Date, 1), p.Float1-0.011, p.Float1+0.011, p.Int1)
	case 7:
		return refQ7(d, p)
	case 8:
		return refQ8(d, p)
	case 9:
		return refQ9(d, p)
	case 10:
		return refQ10(d, p)
	case 11:
		return refQ11(d, p)
	case 12:
		return refQ12(d, p.Strs, p.Date)
	case 13:
		return refQ13(d, p)
	case 14:
		promo, total := refQ14Sums(d, p.Date)
		return table{kinds: []kind{kFloat}, rows: [][]val{{fv(100 * promo / total)}}}
	case 15:
		return refQ15(d, p)
	case 16:
		return refQ16(d, p)
	case 17:
		return refQ17(d, p)
	case 18:
		return refQ18(d, p)
	case 19:
		return refQ19(d, p)
	case 20:
		return refQ20(d, p)
	case 21:
		return refQ21(d, p)
	case 22:
		return refQ22(d, p)
	}
	panic(fmt.Sprintf("reference: no TPC-H Q%d", p.Q))
}

// refQ1 returns l_returnflag, l_linestatus, sum_qty, sum_base_price,
// sum_disc_price, sum_charge, avg_qty, avg_price, avg_disc, count_order.
func refQ1(d *db, date int64) table {
	type acc struct {
		qty                       int64
		price, disc, charge, dsum float64
		n                         int64
	}
	l := d.tab("lineitem")
	rf, ls := l.str("l_returnflag"), l.str("l_linestatus")
	qty, price, disc, tax, ship := l.i("l_quantity"), l.f("l_extendedprice"), l.f("l_discount"), l.f("l_tax"), l.i("l_shipdate")
	groups := make(map[[2]string]*acc)
	for r := 0; r < l.n(); r++ {
		if l.dead(r) || ship[r] > date {
			continue
		}
		k := [2]string{rf[r], ls[r]}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		dp := rev(price[r], disc[r])
		a.qty += qty[r]
		a.price += price[r]
		a.disc += dp
		a.charge += dp * (1 + tax[r])
		a.dsum += disc[r]
		a.n++
	}
	t := table{kinds: []kind{kStr, kStr, kInt, kFloat, kFloat, kFloat, kFloat, kFloat, kFloat, kInt}}
	for k, a := range groups {
		n := float64(a.n)
		t.rows = append(t.rows, []val{sv(k[0]), sv(k[1]), iv(a.qty), fv(a.price), fv(a.disc), fv(a.charge),
			fv(float64(a.qty) / n), fv(a.price / n), fv(a.dsum / n), iv(a.n)})
	}
	t.rows = sortRows(t.rows, tpchShape[1].order, 0)
	return t
}

func refQ2(d *db, p tpch.Params) table {
	nat := loadNations(d)
	s := d.tab("supplier")
	type supp struct {
		name, nation string
		bal          float64
	}
	sups := make(map[int64]supp)
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) && nat.region[s.i("s_nationkey")[i]] == p.Str2 {
			sups[k] = supp{s.str("s_name")[i], nat.name[s.i("s_nationkey")[i]], s.f("s_acctbal")[i]}
		}
	}
	pt := d.tab("part")
	parts := make(map[int64]bool)
	for i, k := range pt.i("p_partkey") {
		if !pt.dead(i) && pt.i("p_size")[i] == p.Int1 && like(pt.str("p_type")[i], "%"+p.Str1) {
			parts[k] = true
		}
	}
	ps := d.tab("partsupp")
	pk, sk, cost := ps.i("ps_partkey"), ps.i("ps_suppkey"), ps.f("ps_supplycost")
	minCost := make(map[int64]float64)
	for i := range pk {
		if ps.dead(i) {
			continue
		}
		if _, ok := sups[sk[i]]; !ok {
			continue
		}
		if m, ok := minCost[pk[i]]; !ok || cost[i] < m {
			minCost[pk[i]] = cost[i]
		}
	}
	t := table{kinds: []kind{kFloat, kStr, kStr, kInt}}
	for i := range pk {
		if ps.dead(i) || !parts[pk[i]] {
			continue
		}
		su, ok := sups[sk[i]]
		if !ok || cost[i] != minCost[pk[i]] {
			continue
		}
		t.rows = append(t.rows, []val{fv(su.bal), sv(su.name), sv(su.nation), iv(pk[i])})
	}
	t.rows = sortRows(t.rows, tpchShape[2].order, 100)
	return t
}

// refQ3 returns l_orderkey, o_orderdate, o_shippriority, revenue: the top
// ten orders of a segment by unshipped revenue. withDateKey adds the plan's
// o_orderdate tie-break to the ordering.
func refQ3(d *db, segment string, odate, sdate int64, withDateKey bool) table {
	c := d.tab("customer")
	cust := make(map[int64]bool)
	for i, k := range c.i("c_custkey") {
		if !c.dead(i) && c.str("c_mktsegment")[i] == segment {
			cust[k] = true
		}
	}
	o := d.tab("orders")
	type ord struct{ date, prio int64 }
	ords := make(map[int64]ord)
	ok, ock, od, osp := o.i("o_orderkey"), o.i("o_custkey"), o.i("o_orderdate"), o.i("o_shippriority")
	for i := range ok {
		if !o.dead(i) && od[i] < odate && cust[ock[i]] {
			ords[ok[i]] = ord{od[i], osp[i]}
		}
	}
	l := d.tab("lineitem")
	lk, price, disc, ship := l.i("l_orderkey"), l.f("l_extendedprice"), l.f("l_discount"), l.i("l_shipdate")
	sums := make(map[int64]float64)
	for r := range lk {
		if l.dead(r) || ship[r] <= sdate {
			continue
		}
		if _, ok := ords[lk[r]]; ok {
			sums[lk[r]] += rev(price[r], disc[r])
		}
	}
	t := table{kinds: []kind{kInt, kDate, kInt, kFloat}}
	for k, s := range sums {
		t.rows = append(t.rows, []val{iv(k), dv(ords[k].date), iv(ords[k].prio), fv(s)})
	}
	keys := []sortKey{{3, true}}
	if withDateKey {
		keys = tpchShape[3].order
	}
	t.rows = sortRows(t.rows, keys, 10)
	return t
}

func refQ4(d *db, p tpch.Params) table {
	l := d.tab("lineitem")
	late := make(map[int64]bool)
	lk, cd, rd := l.i("l_orderkey"), l.i("l_commitdate"), l.i("l_receiptdate")
	for r := range lk {
		if !l.dead(r) && cd[r] < rd[r] {
			late[lk[r]] = true
		}
	}
	o := d.tab("orders")
	hi := addMonths(p.Date, 3)
	counts := make(map[string]int64)
	for i, k := range o.i("o_orderkey") {
		dt := o.i("o_orderdate")[i]
		if !o.dead(i) && dt >= p.Date && dt < hi && late[k] {
			counts[o.str("o_orderpriority")[i]]++
		}
	}
	t := table{kinds: []kind{kStr, kInt}}
	for k, n := range counts {
		t.rows = append(t.rows, []val{sv(k), iv(n)})
	}
	t.rows = sortRows(t.rows, tpchShape[4].order, 0)
	return t
}

func refQ5(d *db, p tpch.Params) table {
	nat := loadNations(d)
	s := d.tab("supplier")
	suppNat := make(map[int64]int64)
	for i, k := range s.i("s_suppkey") {
		nk := s.i("s_nationkey")[i]
		if !s.dead(i) && nat.region[nk] == p.Str1 {
			suppNat[k] = nk
		}
	}
	c := d.tab("customer")
	custNat := make(map[int64]int64)
	for i, k := range c.i("c_custkey") {
		if !c.dead(i) {
			custNat[k] = c.i("c_nationkey")[i]
		}
	}
	o := d.tab("orders")
	hi := addYears(p.Date, 1)
	ordCust := make(map[int64]int64)
	for i, k := range o.i("o_orderkey") {
		dt := o.i("o_orderdate")[i]
		if !o.dead(i) && dt >= p.Date && dt < hi {
			ordCust[k] = o.i("o_custkey")[i]
		}
	}
	l := d.tab("lineitem")
	lk, lsk, price, disc := l.i("l_orderkey"), l.i("l_suppkey"), l.f("l_extendedprice"), l.f("l_discount")
	sums := make(map[string]float64)
	for r := range lk {
		if l.dead(r) {
			continue
		}
		sn, ok := suppNat[lsk[r]]
		if !ok {
			continue
		}
		ck, ok := ordCust[lk[r]]
		if !ok {
			continue
		}
		if cn, ok := custNat[ck]; ok && cn == sn {
			sums[nat.name[sn]] += rev(price[r], disc[r])
		}
	}
	t := table{kinds: []kind{kStr, kFloat}}
	for k, v := range sums {
		t.rows = append(t.rows, []val{sv(k), fv(v)})
	}
	t.rows = sortRows(t.rows, tpchShape[5].order, 0)
	return t
}

// refQ6 returns the one-row revenue sum over a shipdate, discount and
// quantity window.
func refQ6(d *db, lo, hi int64, dlo, dhi float64, qmax int64) table {
	l := d.tab("lineitem")
	qty, price, disc, ship := l.i("l_quantity"), l.f("l_extendedprice"), l.f("l_discount"), l.i("l_shipdate")
	var sum float64
	for r := range qty {
		if l.dead(r) || ship[r] < lo || ship[r] >= hi || disc[r] < dlo || disc[r] > dhi || qty[r] >= qmax {
			continue
		}
		sum += price[r] * disc[r]
	}
	return table{kinds: []kind{kFloat}, rows: [][]val{{fv(sum)}}}
}

func refQ7(d *db, p tpch.Params) table {
	nat := loadNations(d)
	s := d.tab("supplier")
	suppN := make(map[int64]string)
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) {
			suppN[k] = nat.name[s.i("s_nationkey")[i]]
		}
	}
	c := d.tab("customer")
	custN := make(map[int64]string)
	for i, k := range c.i("c_custkey") {
		if !c.dead(i) {
			custN[k] = nat.name[c.i("c_nationkey")[i]]
		}
	}
	o := d.tab("orders")
	ordN := make(map[int64]string)
	for i, k := range o.i("o_orderkey") {
		if n, ok := custN[o.i("o_custkey")[i]]; ok && !o.dead(i) {
			ordN[k] = n
		}
	}
	lo, hi := vector.MustParseDate("1995-01-01"), vector.MustParseDate("1996-12-31")
	l := d.tab("lineitem")
	lk, lsk, price, disc, ship := l.i("l_orderkey"), l.i("l_suppkey"), l.f("l_extendedprice"), l.f("l_discount"), l.i("l_shipdate")
	type key struct {
		sn, cn string
		year   int64
	}
	sums := make(map[key]float64)
	for r := range lk {
		if l.dead(r) || ship[r] < lo || ship[r] > hi {
			continue
		}
		sn, ok1 := suppN[lsk[r]]
		cn, ok2 := ordN[lk[r]]
		if !ok1 || !ok2 {
			continue
		}
		if (sn == p.Str1 && cn == p.Str2) || (sn == p.Str2 && cn == p.Str1) {
			sums[key{sn, cn, yearOf(ship[r])}] += rev(price[r], disc[r])
		}
	}
	t := table{kinds: []kind{kStr, kStr, kInt, kFloat}}
	for k, v := range sums {
		t.rows = append(t.rows, []val{sv(k.sn), sv(k.cn), iv(k.year), fv(v)})
	}
	t.rows = sortRows(t.rows, tpchShape[7].order, 0)
	return t
}

func refQ8(d *db, p tpch.Params) table {
	nat := loadNations(d)
	pt := d.tab("part")
	parts := make(map[int64]bool)
	for i, k := range pt.i("p_partkey") {
		if !pt.dead(i) && pt.str("p_type")[i] == p.Str3 {
			parts[k] = true
		}
	}
	s := d.tab("supplier")
	suppN := make(map[int64]string)
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) {
			suppN[k] = nat.name[s.i("s_nationkey")[i]]
		}
	}
	c := d.tab("customer")
	custIn := make(map[int64]bool)
	for i, k := range c.i("c_custkey") {
		if !c.dead(i) && nat.region[c.i("c_nationkey")[i]] == p.Str2 {
			custIn[k] = true
		}
	}
	lo, hi := vector.MustParseDate("1995-01-01"), vector.MustParseDate("1996-12-31")
	o := d.tab("orders")
	ordYear := make(map[int64]int64)
	for i, k := range o.i("o_orderkey") {
		dt := o.i("o_orderdate")[i]
		if !o.dead(i) && dt >= lo && dt <= hi && custIn[o.i("o_custkey")[i]] {
			ordYear[k] = yearOf(dt)
		}
	}
	l := d.tab("lineitem")
	lk, lpk, lsk, price, disc := l.i("l_orderkey"), l.i("l_partkey"), l.i("l_suppkey"), l.f("l_extendedprice"), l.f("l_discount")
	type acc struct{ mkt, total float64 }
	years := make(map[int64]*acc)
	for r := range lk {
		if l.dead(r) || !parts[lpk[r]] {
			continue
		}
		sn, ok := suppN[lsk[r]]
		if !ok {
			continue
		}
		y, ok := ordYear[lk[r]]
		if !ok {
			continue
		}
		a := years[y]
		if a == nil {
			a = &acc{}
			years[y] = a
		}
		v := rev(price[r], disc[r])
		if sn == p.Str1 {
			a.mkt += v
		} else {
			a.mkt += 0.0
		}
		a.total += v
	}
	t := table{kinds: []kind{kInt, kFloat}}
	for y, a := range years {
		t.rows = append(t.rows, []val{iv(y), fv(a.mkt / a.total)})
	}
	t.rows = sortRows(t.rows, tpchShape[8].order, 0)
	return t
}

func refQ9(d *db, p tpch.Params) table {
	nat := loadNations(d)
	pt := d.tab("part")
	parts := make(map[int64]bool)
	for i, k := range pt.i("p_partkey") {
		if !pt.dead(i) && like(pt.str("p_name")[i], "%"+p.Str1+"%") {
			parts[k] = true
		}
	}
	s := d.tab("supplier")
	suppN := make(map[int64]string)
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) {
			suppN[k] = nat.name[s.i("s_nationkey")[i]]
		}
	}
	ps := d.tab("partsupp")
	cost := make(map[[2]int64]float64)
	for i, k := range ps.i("ps_partkey") {
		if !ps.dead(i) {
			cost[[2]int64{k, ps.i("ps_suppkey")[i]}] = ps.f("ps_supplycost")[i]
		}
	}
	o := d.tab("orders")
	ordYear := make(map[int64]int64)
	for i, k := range o.i("o_orderkey") {
		if !o.dead(i) {
			ordYear[k] = yearOf(o.i("o_orderdate")[i])
		}
	}
	l := d.tab("lineitem")
	lk, lpk, lsk, qty, price, disc := l.i("l_orderkey"), l.i("l_partkey"), l.i("l_suppkey"), l.i("l_quantity"), l.f("l_extendedprice"), l.f("l_discount")
	type key struct {
		nation string
		year   int64
	}
	sums := make(map[key]float64)
	for r := range lk {
		if l.dead(r) || !parts[lpk[r]] {
			continue
		}
		sn, ok := suppN[lsk[r]]
		if !ok {
			continue
		}
		sc, ok := cost[[2]int64{lpk[r], lsk[r]}]
		if !ok {
			continue
		}
		y, ok := ordYear[lk[r]]
		if !ok {
			continue
		}
		sums[key{sn, y}] += rev(price[r], disc[r]) - sc*float64(qty[r])
	}
	t := table{kinds: []kind{kStr, kInt, kFloat}}
	for k, v := range sums {
		t.rows = append(t.rows, []val{sv(k.nation), iv(k.year), fv(v)})
	}
	t.rows = sortRows(t.rows, tpchShape[9].order, 0)
	return t
}

func refQ10(d *db, p tpch.Params) table {
	nat := loadNations(d)
	o := d.tab("orders")
	hi := addMonths(p.Date, 3)
	ordCust := make(map[int64]int64)
	for i, k := range o.i("o_orderkey") {
		dt := o.i("o_orderdate")[i]
		if !o.dead(i) && dt >= p.Date && dt < hi {
			ordCust[k] = o.i("o_custkey")[i]
		}
	}
	l := d.tab("lineitem")
	lk, rf, price, disc := l.i("l_orderkey"), l.str("l_returnflag"), l.f("l_extendedprice"), l.f("l_discount")
	sums := make(map[int64]float64)
	for r := range lk {
		if l.dead(r) || rf[r] != "R" {
			continue
		}
		if ck, ok := ordCust[lk[r]]; ok {
			sums[ck] += rev(price[r], disc[r])
		}
	}
	c := d.tab("customer")
	t := table{kinds: []kind{kInt, kStr, kFloat, kStr, kStr, kFloat}}
	for i, k := range c.i("c_custkey") {
		v, ok := sums[k]
		if c.dead(i) || !ok {
			continue
		}
		t.rows = append(t.rows, []val{iv(k), sv(c.str("c_name")[i]), fv(c.f("c_acctbal")[i]),
			sv(c.str("c_phone")[i]), sv(nat.name[c.i("c_nationkey")[i]]), fv(v)})
	}
	t.rows = sortRows(t.rows, tpchShape[10].order, 20)
	return t
}

func refQ11(d *db, p tpch.Params) table {
	nat := loadNations(d)
	s := d.tab("supplier")
	sups := make(map[int64]bool)
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) && nat.name[s.i("s_nationkey")[i]] == p.Str1 {
			sups[k] = true
		}
	}
	ps := d.tab("partsupp")
	pk, sk, avail, cost := ps.i("ps_partkey"), ps.i("ps_suppkey"), ps.i("ps_availqty"), ps.f("ps_supplycost")
	vals := make(map[int64]float64)
	var total float64
	for i := range pk {
		if ps.dead(i) || !sups[sk[i]] {
			continue
		}
		v := cost[i] * float64(avail[i])
		vals[pk[i]] += v
		total += v
	}
	threshold := total * p.Float1
	t := table{kinds: []kind{kInt, kFloat}}
	for k, v := range vals {
		if v > threshold {
			t.rows = append(t.rows, []val{iv(k), fv(v)})
		}
	}
	t.rows = sortRows(t.rows, tpchShape[11].order, 0)
	return t
}

// refQ12 returns l_shipmode, high_line_count, low_line_count.
func refQ12(d *db, modes []string, date int64) table {
	o := d.tab("orders")
	high := make(map[int64]bool, o.n())
	for i, k := range o.i("o_orderkey") {
		if o.dead(i) {
			continue
		}
		pr := o.str("o_orderpriority")[i]
		high[k] = pr == "1-URGENT" || pr == "2-HIGH"
	}
	hi := addYears(date, 1)
	l := d.tab("lineitem")
	lk, mode, ship, commit, receipt := l.i("l_orderkey"), l.str("l_shipmode"), l.i("l_shipdate"), l.i("l_commitdate"), l.i("l_receiptdate")
	counts := make(map[string]*[2]int64)
	for r := range lk {
		if l.dead(r) || (mode[r] != modes[0] && mode[r] != modes[1]) ||
			commit[r] >= receipt[r] || ship[r] >= commit[r] || receipt[r] < date || receipt[r] >= hi {
			continue
		}
		h, ok := high[lk[r]]
		if !ok {
			continue
		}
		c := counts[mode[r]]
		if c == nil {
			c = &[2]int64{}
			counts[mode[r]] = c
		}
		if h {
			c[0]++
		} else {
			c[1]++
		}
	}
	t := table{kinds: []kind{kStr, kInt, kInt}}
	for m, c := range counts {
		t.rows = append(t.rows, []val{sv(m), iv(c[0]), iv(c[1])})
	}
	t.rows = sortRows(t.rows, tpchShape[12].order, 0)
	return t
}

func refQ13(d *db, p tpch.Params) table {
	o := d.tab("orders")
	perCust := make(map[int64]int64)
	pat := "%" + p.Str1 + "%" + p.Str2 + "%"
	for i, ck := range o.i("o_custkey") {
		if !o.dead(i) && !like(o.str("o_comment")[i], pat) {
			perCust[ck]++
		}
	}
	c := d.tab("customer")
	dist := make(map[int64]int64)
	for i, k := range c.i("c_custkey") {
		if !c.dead(i) {
			dist[perCust[k]]++
		}
	}
	t := table{kinds: []kind{kInt, kInt}}
	for n, cnt := range dist {
		t.rows = append(t.rows, []val{iv(n), iv(cnt)})
	}
	t.rows = sortRows(t.rows, tpchShape[13].order, 0)
	return t
}

// refQ14Sums returns the promotional and total revenue of one month.
func refQ14Sums(d *db, date int64) (promo, total float64) {
	pt := d.tab("part")
	isPromo := make(map[int64]bool, pt.n())
	for i, k := range pt.i("p_partkey") {
		if !pt.dead(i) {
			isPromo[k] = like(pt.str("p_type")[i], "PROMO%")
		}
	}
	hi := addMonths(date, 1)
	l := d.tab("lineitem")
	lpk, price, disc, ship := l.i("l_partkey"), l.f("l_extendedprice"), l.f("l_discount"), l.i("l_shipdate")
	for r := range lpk {
		if l.dead(r) || ship[r] < date || ship[r] >= hi {
			continue
		}
		pr, ok := isPromo[lpk[r]]
		if !ok {
			continue
		}
		v := rev(price[r], disc[r])
		if pr {
			promo += v
		} else {
			promo += 0.0
		}
		total += v
	}
	return promo, total
}

func refQ15(d *db, p tpch.Params) table {
	hi := addMonths(p.Date, 3)
	l := d.tab("lineitem")
	lsk, price, disc, ship := l.i("l_suppkey"), l.f("l_extendedprice"), l.f("l_discount"), l.i("l_shipdate")
	sums := make(map[int64]float64)
	for r := range lsk {
		if !l.dead(r) && ship[r] >= p.Date && ship[r] < hi {
			sums[lsk[r]] += rev(price[r], disc[r])
		}
	}
	best := math.Inf(-1)
	for _, v := range sums {
		best = math.Max(best, v)
	}
	s := d.tab("supplier")
	t := table{kinds: []kind{kInt, kStr, kFloat}}
	for i, k := range s.i("s_suppkey") {
		if v, ok := sums[k]; ok && !s.dead(i) && v == best {
			t.rows = append(t.rows, []val{iv(k), sv(s.str("s_name")[i]), fv(v)})
		}
	}
	t.rows = sortRows(t.rows, tpchShape[15].order, 0)
	return t
}

func refQ16(d *db, p tpch.Params) table {
	s := d.tab("supplier")
	complaint := make(map[int64]bool)
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) && like(s.str("s_comment")[i], "%Customer%Complaints%") {
			complaint[k] = true
		}
	}
	sizes := make(map[int64]bool)
	for _, x := range p.Ints {
		sizes[x] = true
	}
	type part struct {
		brand, typ string
		size       int64
	}
	pt := d.tab("part")
	parts := make(map[int64]part)
	for i, k := range pt.i("p_partkey") {
		br, ty, sz := pt.str("p_brand")[i], pt.str("p_type")[i], pt.i("p_size")[i]
		if !pt.dead(i) && br != p.Str1 && !like(ty, p.Str2+"%") && sizes[sz] {
			parts[k] = part{br, ty, sz}
		}
	}
	type key struct {
		part
		supp int64
	}
	distinct := make(map[key]bool)
	ps := d.tab("partsupp")
	for i, k := range ps.i("ps_partkey") {
		pp, ok := parts[k]
		sk := ps.i("ps_suppkey")[i]
		if ps.dead(i) || !ok || complaint[sk] {
			continue
		}
		distinct[key{pp, sk}] = true
	}
	counts := make(map[part]int64)
	for k := range distinct {
		counts[k.part]++
	}
	t := table{kinds: []kind{kStr, kStr, kInt, kInt}}
	for k, n := range counts {
		t.rows = append(t.rows, []val{sv(k.brand), sv(k.typ), iv(k.size), iv(n)})
	}
	t.rows = sortRows(t.rows, tpchShape[16].order, 0)
	return t
}

func refQ17(d *db, p tpch.Params) table {
	pt := d.tab("part")
	parts := make(map[int64]bool)
	for i, k := range pt.i("p_partkey") {
		if !pt.dead(i) && pt.str("p_brand")[i] == p.Str1 && pt.str("p_container")[i] == p.Str2 {
			parts[k] = true
		}
	}
	l := d.tab("lineitem")
	lpk, qty, price := l.i("l_partkey"), l.i("l_quantity"), l.f("l_extendedprice")
	type acc struct {
		sum float64
		n   int64
	}
	avg := make(map[int64]*acc)
	for r := range lpk {
		if l.dead(r) {
			continue
		}
		a := avg[lpk[r]]
		if a == nil {
			a = &acc{}
			avg[lpk[r]] = a
		}
		a.sum += float64(qty[r])
		a.n++
	}
	var total float64
	for r := range lpk {
		if l.dead(r) || !parts[lpk[r]] {
			continue
		}
		a := avg[lpk[r]]
		if float64(qty[r]) < 0.2*(a.sum/float64(a.n)) {
			total += price[r]
		}
	}
	return table{kinds: []kind{kFloat}, rows: [][]val{{fv(total / 7)}}}
}

func refQ18(d *db, p tpch.Params) table {
	l := d.tab("lineitem")
	sums := make(map[int64]int64)
	for r, k := range l.i("l_orderkey") {
		if !l.dead(r) {
			sums[k] += l.i("l_quantity")[r]
		}
	}
	c := d.tab("customer")
	cname := make(map[int64]string)
	for i, k := range c.i("c_custkey") {
		if !c.dead(i) {
			cname[k] = c.str("c_name")[i]
		}
	}
	o := d.tab("orders")
	t := table{kinds: []kind{kStr, kInt, kInt, kDate, kFloat, kInt}}
	for i, k := range o.i("o_orderkey") {
		q, ok := sums[k]
		if o.dead(i) || !ok || q <= p.Int1 {
			continue
		}
		ck := o.i("o_custkey")[i]
		name, ok := cname[ck]
		if !ok {
			continue
		}
		t.rows = append(t.rows, []val{sv(name), iv(ck), iv(k), dv(o.i("o_orderdate")[i]),
			fv(o.f("o_totalprice")[i]), iv(q)})
	}
	t.rows = sortRows(t.rows, tpchShape[18].order, 100)
	return t
}

func refQ19(d *db, p tpch.Params) table {
	type part struct {
		brand, container string
		size             int64
	}
	pt := d.tab("part")
	parts := make(map[int64]part, pt.n())
	for i, k := range pt.i("p_partkey") {
		if !pt.dead(i) {
			parts[k] = part{pt.str("p_brand")[i], pt.str("p_container")[i], pt.i("p_size")[i]}
		}
	}
	arms := []struct {
		containers []string
		sizeHi     int64
	}{
		{[]string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 5},
		{[]string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10},
		{[]string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 15},
	}
	l := d.tab("lineitem")
	lpk, qty, price, disc := l.i("l_partkey"), l.i("l_quantity"), l.f("l_extendedprice"), l.f("l_discount")
	instr, mode := l.str("l_shipinstruct"), l.str("l_shipmode")
	var sum float64
	for r := range lpk {
		if l.dead(r) || (mode[r] != "AIR" && mode[r] != "AIR REG") || instr[r] != "DELIVER IN PERSON" {
			continue
		}
		pp, ok := parts[lpk[r]]
		if !ok {
			continue
		}
		for a, arm := range arms {
			inC := false
			for _, c := range arm.containers {
				inC = inC || pp.container == c
			}
			if pp.brand == p.Brands[a] && inC && qty[r] >= p.Quants[a] && qty[r] <= p.Quants[a]+10 &&
				pp.size >= 1 && pp.size <= arm.sizeHi {
				sum += rev(price[r], disc[r])
				break
			}
		}
	}
	return table{kinds: []kind{kFloat}, rows: [][]val{{fv(sum)}}}
}

func refQ20(d *db, p tpch.Params) table {
	hi := addYears(p.Date, 1)
	l := d.tab("lineitem")
	lpk, lsk, qty, ship := l.i("l_partkey"), l.i("l_suppkey"), l.i("l_quantity"), l.i("l_shipdate")
	sq := make(map[[2]int64]int64)
	for r := range lpk {
		if !l.dead(r) && ship[r] >= p.Date && ship[r] < hi {
			sq[[2]int64{lpk[r], lsk[r]}] += qty[r]
		}
	}
	pt := d.tab("part")
	named := make(map[int64]bool)
	for i, k := range pt.i("p_partkey") {
		if !pt.dead(i) && like(pt.str("p_name")[i], p.Str1+"%") {
			named[k] = true
		}
	}
	ps := d.tab("partsupp")
	okSupp := make(map[int64]bool)
	for i, k := range ps.i("ps_partkey") {
		sk := ps.i("ps_suppkey")[i]
		q, ok := sq[[2]int64{k, sk}]
		if ps.dead(i) || !ok || !named[k] {
			continue
		}
		if float64(ps.i("ps_availqty")[i]) > 0.5*float64(q) {
			okSupp[sk] = true
		}
	}
	nat := loadNations(d)
	s := d.tab("supplier")
	t := table{kinds: []kind{kStr}}
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) && okSupp[k] && nat.name[s.i("s_nationkey")[i]] == p.Str2 {
			t.rows = append(t.rows, []val{sv(s.str("s_name")[i])})
		}
	}
	t.rows = sortRows(t.rows, tpchShape[20].order, 0)
	return t
}

func refQ21(d *db, p tpch.Params) table {
	nat := loadNations(d)
	s := d.tab("supplier")
	sname := make(map[int64]string)
	for i, k := range s.i("s_suppkey") {
		if !s.dead(i) && nat.name[s.i("s_nationkey")[i]] == p.Str1 {
			sname[k] = s.str("s_name")[i]
		}
	}
	o := d.tab("orders")
	final := make(map[int64]bool)
	for i, k := range o.i("o_orderkey") {
		if !o.dead(i) && o.str("o_orderstatus")[i] == "F" {
			final[k] = true
		}
	}
	l := d.tab("lineitem")
	lk, lsk, rd, cd := l.i("l_orderkey"), l.i("l_suppkey"), l.i("l_receiptdate"), l.i("l_commitdate")
	supps := make(map[int64]map[int64]bool)
	lates := make(map[int64]map[int64]bool)
	add := func(m map[int64]map[int64]bool, o, s int64) {
		if m[o] == nil {
			m[o] = make(map[int64]bool)
		}
		m[o][s] = true
	}
	for r := range lk {
		if l.dead(r) {
			continue
		}
		add(supps, lk[r], lsk[r])
		if rd[r] > cd[r] {
			add(lates, lk[r], lsk[r])
		}
	}
	counts := make(map[string]int64)
	for r := range lk {
		if l.dead(r) || rd[r] <= cd[r] || !final[lk[r]] {
			continue
		}
		name, ok := sname[lsk[r]]
		if ok && len(supps[lk[r]]) >= 2 && len(lates[lk[r]]) == 1 {
			counts[name]++
		}
	}
	t := table{kinds: []kind{kStr, kInt}}
	for n, c := range counts {
		t.rows = append(t.rows, []val{sv(n), iv(c)})
	}
	t.rows = sortRows(t.rows, tpchShape[21].order, 100)
	return t
}

func refQ22(d *db, p tpch.Params) table {
	codes := make(map[string]bool)
	for _, c := range p.Strs {
		codes[c] = true
	}
	c := d.tab("customer")
	keys, phone, bal := c.i("c_custkey"), c.str("c_phone"), c.f("c_acctbal")
	var sum float64
	var n int64
	for i := range keys {
		if !c.dead(i) && codes[phone[i][:2]] && bal[i] > 0 {
			sum += bal[i]
			n++
		}
	}
	avg := 0.0
	if n > 0 {
		avg = sum / float64(n)
	}
	o := d.tab("orders")
	hasOrder := make(map[int64]bool)
	for i, ck := range o.i("o_custkey") {
		if !o.dead(i) {
			hasOrder[ck] = true
		}
	}
	type acc struct {
		n   int64
		sum float64
	}
	groups := make(map[string]*acc)
	for i, k := range keys {
		code := phone[i][:2]
		if c.dead(i) || !codes[code] || bal[i] <= avg || hasOrder[k] {
			continue
		}
		a := groups[code]
		if a == nil {
			a = &acc{}
			groups[code] = a
		}
		a.n++
		a.sum += bal[i]
	}
	t := table{kinds: []kind{kStr, kInt, kFloat}}
	for code, a := range groups {
		t.rows = append(t.rows, []val{sv(code), iv(a.n), fv(a.sum)})
	}
	t.rows = sortRows(t.rows, tpchShape[22].order, 0)
	return t
}

// nearby is the reference cone search: every PhotoPrimary object within r
// degrees of (ra, dec), with its distance in degrees, computed by the same
// spherical law of cosines the catalog function documents.
func nearby(d *db, ra0, dec0, r float64) (ids []int64, dist []float64) {
	t := d.tab("PhotoPrimary")
	ras, decs, objs := t.f("ra"), t.f("dec"), t.i("objID")
	ra0r, dec0r, rr := ra0*math.Pi/180, dec0*math.Pi/180, r*math.Pi/180
	for i := range ras {
		if t.dead(i) {
			continue
		}
		ra, dec := ras[i]*math.Pi/180, decs[i]*math.Pi/180
		x := math.Sin(dec0r)*math.Sin(dec) + math.Cos(dec0r)*math.Cos(dec)*math.Cos(ra-ra0r)
		dd := math.Acos(math.Max(-1, math.Min(1, x)))
		if dd <= rr {
			ids = append(ids, objs[i])
			dist = append(dist, dd*180/math.Pi)
		}
	}
	return ids, dist
}

// photoRows indexes PhotoPrimary rows by objID.
func photoRows(d *db) (tbl, map[int64]int) {
	t := d.tab("PhotoPrimary")
	idx := make(map[int64]int, t.n())
	for i, k := range t.i("objID") {
		if !t.dead(i) {
			idx[k] = i
		}
	}
	return t, idx
}

// refConeJoin answers fGetNearbyObjEq(ra, dec, r) joined back to
// PhotoPrimary: the whole answer, before the statement's LIMIT. withFn
// keeps the function's nearby_objID and distance columns in front, as the
// plan form returns them.
func refConeJoin(d *db, ra, dec, r float64, cols []string, withFn bool) table {
	ids, dist := nearby(d, ra, dec, r)
	t, idx := photoRows(d)
	var out table
	if withFn {
		out.kinds = []kind{kInt, kFloat}
	}
	for _, c := range cols {
		out.kinds = append(out.kinds, kindOf(t.s.Schema[t.col(c)].Typ))
	}
	for j, id := range ids {
		i, ok := idx[id]
		if !ok {
			continue
		}
		var row []val
		if withFn {
			row = []val{iv(id), fv(dist[j])}
		}
		for _, c := range cols {
			v := t.s.Col(t.col(c))
			if v.Typ == vector.Float64 {
				row = append(row, fv(v.F64[i]))
			} else {
				row = append(row, iv(v.I64[i]))
			}
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// refConeAgg returns type, n, avg_r over one cone.
func refConeAgg(d *db, ra, dec, r float64) table {
	ids, _ := nearby(d, ra, dec, r)
	t, idx := photoRows(d)
	type acc struct {
		n   int64
		sum float64
	}
	groups := make(map[int64]*acc)
	for _, id := range ids {
		i, ok := idx[id]
		if !ok {
			continue
		}
		ty := t.i("type")[i]
		a := groups[ty]
		if a == nil {
			a = &acc{}
			groups[ty] = a
		}
		a.n++
		a.sum += t.f("r_mag")[i]
	}
	out := table{kinds: []kind{kInt, kInt, kFloat}}
	for ty, a := range groups {
		out.rows = append(out.rows, []val{iv(ty), iv(a.n), fv(a.sum / float64(a.n))})
	}
	return out
}

// pick keeps the given columns of t, in that order.
func pick(t table, cols ...int) table {
	out := table{}
	for _, c := range cols {
		out.kinds = append(out.kinds, t.kinds[c])
	}
	for _, r := range t.rows {
		row := make([]val, len(cols))
		for i, c := range cols {
			row[i] = r[c]
		}
		out.rows = append(out.rows, row)
	}
	return out
}
