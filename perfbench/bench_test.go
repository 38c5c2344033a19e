package main

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

func TestComparatorToleratesLastBitOnly(t *testing.T) {
	want := table{kinds: []kind{kStr, kInt, kFloat}, rows: [][]val{
		{sv("A"), iv(4), fv(632)},
		{sv("R"), iv(3), fv(360)},
	}}
	lastBit := table{kinds: want.kinds, rows: [][]val{
		{sv("A"), iv(4), fv(math.Nextafter(632, 700))},
		{sv("R"), iv(3), fv(math.Nextafter(360, 0))},
	}}
	if err := compare(lastBit, want, shape{}); err != nil {
		t.Fatalf("last-bit float difference rejected: %v", err)
	}
	for name, got := range map[string]table{
		"changed count":     {kinds: want.kinds, rows: [][]val{{sv("A"), iv(5), fv(632)}, {sv("R"), iv(3), fv(360)}}},
		"float off by 1e-6": {kinds: want.kinds, rows: [][]val{{sv("A"), iv(4), fv(632 * (1 + 1e-6))}, {sv("R"), iv(3), fv(360)}}},
		"missing row":       {kinds: want.kinds, rows: want.rows[:1]},
		"changed string":    {kinds: want.kinds, rows: [][]val{{sv("N"), iv(4), fv(632)}, {sv("R"), iv(3), fv(360)}}},
		"int for float":     {kinds: []kind{kStr, kInt, kInt}, rows: [][]val{{sv("A"), iv(4), iv(632)}, {sv("R"), iv(3), iv(360)}}},
	} {
		if compare(got, want, shape{}) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestComparatorOrderAndLimit(t *testing.T) {
	kinds := []kind{kInt, kFloat}
	want := table{kinds: kinds, rows: [][]val{{iv(1), fv(3)}, {iv(2), fv(2)}, {iv(3), fv(1)}}}
	desc := shape{order: []sortKey{{1, true}}}
	if err := compare(want, want, desc); err != nil {
		t.Fatal(err)
	}
	swapped := table{kinds: kinds, rows: [][]val{{iv(2), fv(2)}, {iv(1), fv(3)}, {iv(3), fv(1)}}}
	if compare(swapped, want, desc) == nil {
		t.Error("out-of-order rows accepted under ORDER BY")
	}
	if err := compare(swapped, want, shape{}); err != nil {
		t.Errorf("unordered statement rejected a reordering: %v", err)
	}
	// LIMIT 2 without ORDER BY: any two rows of the answer.
	lim := shape{subsetLimit: 2}
	if err := compare(table{kinds: kinds, rows: want.rows[1:]}, want, lim); err != nil {
		t.Errorf("subset rejected: %v", err)
	}
	if compare(table{kinds: kinds, rows: [][]val{{iv(9), fv(3)}, {iv(2), fv(2)}}}, want, lim) == nil {
		t.Error("row outside the answer accepted")
	}
	if compare(table{kinds: kinds, rows: want.rows[:1]}, want, lim) == nil {
		t.Error("short LIMIT answer accepted")
	}
}

func TestWireDecode(t *testing.T) {
	got, err := fromText([]kind{kInt, kFloat, kDate, kStr}, [][]string{{"-7", "0.1", "1994-03-01", "x y"}})
	if err != nil {
		t.Fatal(err)
	}
	want := table{kinds: got.kinds, rows: [][]val{{iv(-7), fv(0.1), dv(vector.MustParseDate("1994-03-01")), sv("x y")}}}
	if err := compare(got, want, shape{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fromText([]kind{kInt}, [][]string{{"1.5"}}); err == nil {
		t.Error("a float decoded as an int")
	}
}

func TestLike(t *testing.T) {
	for _, c := range []struct {
		s, pat string
		want   bool
	}{
		{"PROMO BRUSHED TIN", "PROMO%", true},
		{"STANDARD PLATED BRASS", "PROMO%", false},
		{"slow Customer some Complaints haggle", "%Customer%Complaints%", true},
		{"Complaints Customer", "%Customer%Complaints%", false},
		{"ECONOMY ANODIZED STEEL", "%STEEL", true},
		{"ab", "a_", true},
		{"a", "a_", false},
	} {
		if got := like(c.s, c.pat); got != c.want {
			t.Errorf("like(%q, %q) = %t", c.s, c.pat, got)
		}
	}
}

// handCatalog is a dozen lineitems over six orders and three parts, enough
// for the dashboard patterns Q1, Q6, Q12 and Q14. The answers in
// TestReferenceHandAnswers are worked out from these rows by hand.
func handCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	d := vector.MustParseDate
	li := catalog.NewTable("lineitem", catalog.Schema{
		{Name: "l_orderkey", Typ: vector.Int64}, {Name: "l_partkey", Typ: vector.Int64},
		{Name: "l_quantity", Typ: vector.Int64}, {Name: "l_extendedprice", Typ: vector.Float64},
		{Name: "l_discount", Typ: vector.Float64}, {Name: "l_tax", Typ: vector.Float64},
		{Name: "l_returnflag", Typ: vector.String}, {Name: "l_linestatus", Typ: vector.String},
		{Name: "l_shipdate", Typ: vector.Date}, {Name: "l_commitdate", Typ: vector.Date},
		{Name: "l_receiptdate", Typ: vector.Date}, {Name: "l_shipmode", Typ: vector.String},
	})
	type row struct {
		ok, pk, qty           int64
		price, disc, tax      float64
		rf, ls                string
		ship, commit, receipt string
		mode                  string
	}
	rows := []row{
		{1, 1, 10, 100, 0.05, 0.01, "R", "F", "1994-01-10", "1994-01-20", "1994-01-25", "MAIL"},
		{1, 2, 30, 300, 0.06, 0.02, "A", "F", "1994-02-10", "1994-02-05", "1994-02-20", "SHIP"},
		{2, 3, 5, 50, 0.07, 0.00, "R", "F", "1994-03-05", "1994-03-10", "1994-03-15", "SHIP"},
		{2, 1, 20, 200, 0.10, 0.00, "N", "O", "1994-03-20", "1994-03-25", "1994-03-22", "MAIL"},
		{3, 2, 8, 80, 0.04, 0.03, "N", "O", "1994-07-01", "1994-07-10", "1994-07-12", "RAIL"},
		{3, 3, 12, 120, 0.06, 0.01, "A", "F", "1993-12-20", "1993-12-28", "1994-01-02", "MAIL"},
		{4, 1, 23, 230, 0.05, 0.02, "R", "F", "1994-05-01", "1994-05-03", "1994-05-09", "TRUCK"},
		{4, 2, 1, 10, 0.08, 0.00, "A", "F", "1994-03-31", "1994-04-02", "1994-04-03", "SHIP"},
		{5, 3, 40, 400, 0.02, 0.05, "N", "O", "1995-02-01", "1995-02-10", "1995-02-15", "MAIL"},
		{5, 1, 15, 150, 0.07, 0.04, "N", "O", "1994-06-30", "1994-07-05", "1994-07-06", "SHIP"},
		{6, 2, 2, 20, 0.06, 0.00, "R", "F", "1994-12-31", "1995-01-02", "1995-01-03", "FOB"},
		{6, 3, 24, 240, 0.05, 0.01, "A", "F", "1994-04-15", "1994-04-20", "1994-04-25", "AIR"},
	}
	w := li.BeginWrite()
	for _, r := range rows {
		if err := w.AppendRow(vector.NewInt64Datum(r.ok), vector.NewInt64Datum(r.pk), vector.NewInt64Datum(r.qty),
			vector.NewFloat64Datum(r.price), vector.NewFloat64Datum(r.disc), vector.NewFloat64Datum(r.tax),
			vector.NewStringDatum(r.rf), vector.NewStringDatum(r.ls), vector.NewDateDatum(d(r.ship)),
			vector.NewDateDatum(d(r.commit)), vector.NewDateDatum(d(r.receipt)), vector.NewStringDatum(r.mode)); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	cat.AddTable(li)
	ord := catalog.NewTable("orders", catalog.Schema{
		{Name: "o_orderkey", Typ: vector.Int64}, {Name: "o_orderpriority", Typ: vector.String}})
	w = ord.BeginWrite()
	for i, p := range []string{"1-URGENT", "3-MEDIUM", "2-HIGH", "5-LOW", "1-URGENT", "4-NOT SPECIFIED"} {
		if err := w.AppendRow(vector.NewInt64Datum(int64(i+1)), vector.NewStringDatum(p)); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	cat.AddTable(ord)
	part := catalog.NewTable("part", catalog.Schema{
		{Name: "p_partkey", Typ: vector.Int64}, {Name: "p_type", Typ: vector.String}})
	w = part.BeginWrite()
	for i, ty := range []string{"PROMO BRUSHED TIN", "STANDARD PLATED BRASS", "PROMO POLISHED COPPER"} {
		if err := w.AppendRow(vector.NewInt64Datum(int64(i+1)), vector.NewStringDatum(ty)); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	cat.AddTable(part)
	return cat
}

// handStmts are the dashboard patterns over handCatalog, with the answers
// worked out by hand from its rows.
func handStmts() (stmts []*stmt, answers []table) {
	d := vector.MustParseDate
	q1 := tpch.Params{Q: 1, Date: d("1994-06-30")}
	q6 := tpch.Params{Q: 6, Date: d("1994-01-01"), Float1: 0.06, Int1: 24}
	q12 := tpch.Params{Q: 12, Strs: []string{"MAIL", "SHIP"}, Date: d("1994-01-01")}
	q14 := tpch.Params{Q: 14, Date: d("1994-03-01")}
	for _, p := range []tpch.Params{q1, q6, q12, q14} {
		stmts = append(stmts, tpchStmt(p, -1))
	}
	q1kinds := []kind{kStr, kStr, kInt, kFloat, kFloat, kFloat, kFloat, kFloat, kFloat, kInt}
	answers = []table{
		// Q1, shipped by 1994-06-30 (rows 1-4, 6-8, 10, 12):
		// (A,F) rows 2,6,8,12; (N,O) rows 4,10; (R,F) rows 1,3,7.
		{kinds: q1kinds, rows: [][]val{
			{sv("A"), sv("F"), iv(67), fv(670), fv(282 + 112.8 + 9.2 + 228),
				fv(282*1.02 + 112.8*1.01 + 9.2 + 228*1.01), fv(67.0 / 4), fv(670.0 / 4), fv((0.06 + 0.06 + 0.08 + 0.05) / 4), iv(4)},
			{sv("N"), sv("O"), iv(35), fv(350), fv(180 + 139.5),
				fv(180 + 139.5*1.04), fv(35.0 / 2), fv(350.0 / 2), fv((0.10 + 0.07) / 2), iv(2)},
			{sv("R"), sv("F"), iv(38), fv(380), fv(95 + 46.5 + 218.5),
				fv(95*1.01 + 46.5 + 218.5*1.02), fv(38.0 / 3), fv(380.0 / 3), fv((0.05 + 0.07 + 0.05) / 3), iv(3)},
		}},
		// Q6: rows 1, 3, 7, 10, 11 qualify: 5 + 3.5 + 11.5 + 10.5 + 1.2.
		{kinds: []kind{kFloat}, rows: [][]val{{fv(31.7)}}},
		// Q12: MAIL rows 1 (1-URGENT) and 6 (2-HIGH); SHIP rows 10
		// (1-URGENT), 3 (3-MEDIUM) and 8 (5-LOW).
		{kinds: []kind{kStr, kInt, kInt}, rows: [][]val{{sv("MAIL"), iv(2), iv(0)}, {sv("SHIP"), iv(1), iv(2)}}},
		// Q14, March 1994: rows 3 and 4 are PROMO parts (46.5 + 180), row 8
		// is not (9.2).
		{kinds: []kind{kFloat}, rows: [][]val{{fv(100 * 226.5 / 235.7)}}},
	}
	return stmts, answers
}

func TestReferenceHandAnswers(t *testing.T) {
	db := snapshotDB(handCatalog(t))
	stmts, answers := handStmts()
	for i, s := range stmts {
		if err := compare(s.ref(db), answers[i], s.shape); err != nil {
			t.Errorf("%s reference: %v", s.label, err)
		}
	}
}

// runHand runs every hand statement twice in-process under mode and
// returns the window a workload would have captured.
func runHand(t *testing.T, cat *catalog.Catalog, stmts []*stmt, mode recycledb.Mode) *window {
	t.Helper()
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: mode}, cat)
	cp := newCapture(len(stmts))
	w := &window{caps: []*capture{cp}}
	for r := 0; r < 2; r++ {
		for i, s := range stmts {
			readPlan(eng, s, i, 0, cp, w, nil)
		}
	}
	if w.failed > 0 {
		t.Fatalf("%d reads failed", w.failed)
	}
	return w
}

func TestEngineMatchesReferenceOnHandCatalog(t *testing.T) {
	stmts, _ := handStmts()
	for _, mode := range []recycledb.Mode{recycledb.Off, recycledb.History, recycledb.Speculative, recycledb.Proactive} {
		cat := handCatalog(t)
		w := runHand(t, cat, stmts, mode)
		if n := checkWindow(w, newChecker(stmts, []*db{snapshotDB(cat)})); n != 0 {
			t.Errorf("mode %v: %d outputs wrong", mode, n)
		}
	}
}

func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	cat := handCatalog(t)
	stmts, _ := handStmts()
	w := runHand(t, cat, stmts, recycledb.Speculative)
	for i := range stmts {
		bad := slices.Clone(stmts)
		orig := *stmts[i]
		corrupt := orig
		corrupt.ref = func(d *db) table {
			ref := orig.ref(d)
			v := &ref.rows[0][len(ref.rows[0])-1]
			v.i++
			v.f *= 1 + 1e-6
			return ref
		}
		bad[i] = &corrupt
		if n := checkWindow(w, newChecker(bad, []*db{snapshotDB(cat)})); n == 0 {
			t.Errorf("corrupting %s's reference went unnoticed", orig.label)
		}
	}
}

// inDomain reports why a lineitem row lies outside the TPC-H generator's
// domains, or "" if it lies inside.
func inDomain(s *catalog.Snapshot, r int, odate map[int64]int64, nPart, nSupp int) string {
	col := func(n string) *vector.Vector { return s.Col(s.Schema.ColIndex(n)) }
	key, part, supp := col("l_orderkey").I64[r], col("l_partkey").I64[r], col("l_suppkey").I64[r]
	qty, disc, tax := col("l_quantity").I64[r], col("l_discount").F64[r], col("l_tax").F64[r]
	ship, commit, receipt := col("l_shipdate").I64[r], col("l_commitdate").I64[r], col("l_receiptdate").I64[r]
	rf, ls := col("l_returnflag").Str[r], col("l_linestatus").Str[r]
	hundredths := func(x float64, hi int) bool {
		k := math.Round(x * 100)
		return k >= 0 && k <= float64(hi) && x == k/100
	}
	od, ok := odate[key]
	switch {
	case !ok:
		return "no order"
	case qty < 1 || qty > 50:
		return "quantity"
	case !hundredths(disc, 10):
		return "discount"
	case !hundredths(tax, 8):
		return "tax"
	case part < 1 || part > int64(nPart):
		return "part"
	case !slices.ContainsFunc([]int{0, 1, 2, 3}, func(slot int) bool { return int64(psSupplier(int(part), slot, nSupp)) == supp }):
		return "supplier"
	case col("l_extendedprice").F64[r] != float64(90000+((part/10)%20001)+100*(part%1000))/100*float64(qty):
		return "price"
	case ship-od < 1 || ship-od > 121 || commit-od < 30 || commit-od > 90 || receipt-ship < 1 || receipt-ship > 30:
		return "dates"
	case (rf == "N") != (receipt > genCurrent) || (rf != "N" && rf != "R" && rf != "A"):
		return "returnflag " + rf
	case (ls == "F") != (ship <= genCurrent) || (ls != "F" && ls != "O"):
		return "linestatus " + ls
	case !slices.Contains(tpch.ShipModes, col("l_shipmode").Str[r]):
		return "shipmode"
	case !slices.Contains(tpch.Instructs, col("l_shipinstruct").Str[r]):
		return "shipinstruct"
	}
	return ""
}

// TestRefreshStaysInGeneratorDomains is the refresh writer's property
// test: for several seeds, every row RF1 writes lies inside the TPC-H
// generator's value domains (the check is first shown to accept the
// generator's own rows), RF2 removes exactly the oldest orders, and the
// live data keeps its size and its four Q1 groups.
func TestRefreshStaysInGeneratorDomains(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cat := catalog.New()
		tpch.Generate(cat, 0.002, seed)
		rf, err := newRefresher(cat, seed)
		if err != nil {
			t.Fatal(err)
		}
		ot, _ := cat.Table("orders")
		lt, _ := cat.Table("lineitem")
		liveOrders := ot.Rows()
		for round := 0; round < 60; round++ {
			if err := rf.rf1(nil); err != nil {
				t.Fatal(err)
			}
			if err := rf.rf2(nil); err != nil {
				t.Fatal(err)
			}
			if ot.Rows() != liveOrders {
				t.Fatalf("seed %d round %d: %d live orders, want %d", seed, round, ot.Rows(), liveOrders)
			}
		}
		os, ls := ot.Snapshot(), lt.Snapshot()
		odate := make(map[int64]int64)
		okeys := os.Col(os.Schema.ColIndex("o_orderkey")).I64
		for r := 0; r < os.Rows; r++ {
			k := okeys[r]
			if os.Deleted(r) != (k < rf.oldest) {
				t.Fatalf("seed %d: order %d deleted=%t with oldest live %d", seed, k, os.Deleted(r), rf.oldest)
			}
			dt := os.Col(os.Schema.ColIndex("o_orderdate")).I64[r]
			pr := os.Col(os.Schema.ColIndex("o_orderpriority")).Str[r]
			ck := os.Col(os.Schema.ColIndex("o_custkey")).I64[r]
			if dt < genStart || dt > genEnd || !slices.Contains(tpch.Priorities, pr) || ck < 1 || ck > int64(rf.nCust) {
				t.Fatalf("seed %d: order %d outside the generator's domains", seed, k)
			}
			odate[k] = dt
		}
		groups := make(map[string]bool)
		for r := 0; r < ls.Rows; r++ {
			if why := inDomain(ls, r, odate, rf.nPart, rf.nSupp); why != "" {
				t.Fatalf("seed %d: lineitem row %d (%s) outside the generator's domains: %s",
					seed, r, map[bool]string{true: "written by RF1", false: "generated"}[r >= ls.Rows-60*7*rf.batch], why)
			}
			if !ls.Deleted(r) {
				groups[ls.Col(ls.Schema.ColIndex("l_returnflag")).Str[r]+ls.Col(ls.Schema.ColIndex("l_linestatus")).Str[r]] = true
			}
		}
		if len(groups) != 4 {
			t.Errorf("seed %d: %d Q1 groups, want 4", seed, len(groups))
		}
	}
}

func TestWireSQLNumbersPlaceholders(t *testing.T) {
	got := wireSQL("SELECT a FROM t WHERE b < ? AND c BETWEEN ? AND ?")
	if want := "SELECT a FROM t WHERE b < $1 AND c BETWEEN $2 AND $3"; got != want {
		t.Fatalf("got %q", got)
	}
}

// TestServeSQLMatchesReference runs every serve statement in-process and
// checks it, so a wrong SQL text or reference shows without a server.
func TestServeSQLMatchesReference(t *testing.T) {
	cat := catalog.New()
	tpch.Generate(cat, 0.002, 7)
	skyserver.Load(cat, 3000, 7)
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative}, cat)
	db := snapshotDB(cat)
	for _, m := range serveMix() {
		s := m.s
		rows, err := eng.Query(context.Background(), s.sql, anyArgs(s.args)...)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		if err := compare(fromBatches(res.Schema, res.Batches), s.ref(db), s.shape); err != nil {
			t.Errorf("%s: %v", s.label, err)
		}
		if strings.Count(s.sql, "?") != len(s.args) {
			t.Errorf("%s: %d placeholders for %d arguments", s.label, strings.Count(s.sql, "?"), len(s.args))
		}
	}
}
