package main

import (
	"fmt"
	"math/rand"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

// Dates of the TPC-H generator (internal/tpch/gen.go): the o_orderdate
// range and the "current date" that splits line statuses and return flags.
var (
	genStart   = vector.MustParseDate("1992-01-01")
	genEnd     = vector.MustParseDate("1998-08-02")
	genCurrent = vector.MustParseDate("1995-06-17")
)

// refresher is a stationary TPC-H refresh writer. RF1 appends new orders
// with their lineitems, every value drawn from the generator's own domains;
// RF2 deletes as many of the oldest live orders with their lineitems. The
// live data therefore keeps the generator's distribution, group counts and
// size however long a run lasts, so throughput does not drift with it.
type refresher struct {
	cat                 *catalog.Catalog
	rng                 *rand.Rand
	batch               int
	nCust, nPart, nSupp int
	nextKey             int64 // next order key RF1 assigns
	oldest              int64 // oldest live order key
	liCursor            int   // first lineitem row not yet deleted
	// commits records each Writer.Commit's duration when tracing.
	commits []time.Duration
}

// newRefresher sizes refreshes like TPC-H: batch orders per refresh, 0.1%
// of the orders table.
func newRefresher(cat *catalog.Catalog, seed int64) (*refresher, error) {
	rows := func(name string) (int, error) {
		t, err := cat.Table(name)
		if err != nil {
			return 0, err
		}
		return t.Rows(), nil
	}
	r := &refresher{cat: cat, rng: rand.New(rand.NewSource(seed)), oldest: 1}
	var err error
	var nOrd int
	for _, x := range []struct {
		name string
		dst  *int
	}{{"customer", &r.nCust}, {"part", &r.nPart}, {"supplier", &r.nSupp}, {"orders", &nOrd}} {
		if *x.dst, err = rows(x.name); err != nil {
			return nil, err
		}
	}
	r.nextKey = int64(nOrd) + 1
	r.batch = max(1, nOrd/1000)
	return r, nil
}

// psSupplier is the generator's (part, slot) to supplier mapping, so every
// appended lineitem has its partsupp row.
func psSupplier(p, s, nSupp int) int {
	quarter := max(1, nSupp/4)
	return (p+s*quarter+(p-1)/nSupp)%nSupp + 1
}

func (r *refresher) commit(w *catalog.Writer, tr *tracer) {
	t0 := time.Now()
	w.Commit()
	t1 := time.Now()
	if tr != nil {
		r.commits = append(r.commits, t1.Sub(t0))
		tr.add("catalog.commit", 0, tr.id(), t0, t1)
	}
}

// rf1 appends r.batch new orders and their lineitems, orders first.
func (r *refresher) rf1(tr *tracer) error {
	ot, err := r.cat.Table("orders")
	if err != nil {
		return err
	}
	lt, err := r.cat.Table("lineitem")
	if err != nil {
		return err
	}
	ow, lw := ot.BeginWrite(), lt.BeginWrite()
	oap, lap := ow.Appender(), lw.Appender()
	rng := r.rng
	for n := 0; n < r.batch; n++ {
		key := r.nextKey
		r.nextKey++
		odate := genStart + int64(rng.Intn(int(genEnd-genStart)+1))
		lines := rng.Intn(7) + 1
		var total float64
		allShipped, anyShipped := true, false
		for l := 1; l <= lines; l++ {
			qty := rng.Intn(50) + 1
			part := rng.Intn(r.nPart) + 1
			supp := psSupplier(part, rng.Intn(4), r.nSupp)
			price := float64(90000+((part/10)%20001)+100*(part%1000)) / 100 * float64(qty)
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := odate + int64(rng.Intn(121)+1)
			commit := odate + int64(rng.Intn(61)+30)
			receipt := ship + int64(rng.Intn(30)+1)
			rf := "N"
			if receipt <= genCurrent {
				rf = [2]string{"R", "A"}[rng.Intn(2)]
			}
			ls := "O"
			if ship <= genCurrent {
				ls = "F"
				anyShipped = true
			} else {
				allShipped = false
			}
			total += price * (1 - disc) * (1 + tax)
			lap.Int64(0, key)
			lap.Int64(1, int64(part))
			lap.Int64(2, int64(supp))
			lap.Int64(3, int64(l))
			lap.Int64(4, int64(qty))
			lap.Float64(5, price)
			lap.Float64(6, disc)
			lap.Float64(7, tax)
			lap.String(8, rf)
			lap.String(9, ls)
			lap.Int64(10, ship)
			lap.Int64(11, commit)
			lap.Int64(12, receipt)
			lap.String(13, tpch.Instructs[rng.Intn(len(tpch.Instructs))])
			lap.String(14, tpch.ShipModes[rng.Intn(len(tpch.ShipModes))])
			lap.FinishRow()
		}
		status := "O"
		switch {
		case allShipped:
			status = "F"
		case anyShipped:
			status = "P"
		}
		comment := "quick final deposits"
		if rng.Intn(100) == 0 {
			comment = "blithely special packed requests integrate"
		}
		oap.Int64(0, key)
		oap.Int64(1, int64(rng.Intn(r.nCust)+1))
		oap.String(2, status)
		oap.Float64(3, total)
		oap.Int64(4, odate)
		oap.String(5, tpch.Priorities[rng.Intn(len(tpch.Priorities))])
		oap.Int64(6, 0)
		oap.String(7, comment)
		oap.FinishRow()
	}
	r.commit(ow, tr)
	r.commit(lw, tr)
	return nil
}

// rf2 deletes the r.batch oldest live orders and their lineitems,
// lineitems first. Both tables hold rows in ascending order key, and order
// k sits at physical row k-1, so the victims are a prefix of what is left.
func (r *refresher) rf2(tr *tracer) error {
	ot, err := r.cat.Table("orders")
	if err != nil {
		return err
	}
	lt, err := r.cat.Table("lineitem")
	if err != nil {
		return err
	}
	last := r.oldest + int64(r.batch) - 1
	if last >= r.nextKey {
		return fmt.Errorf("rf2: only %d live orders left", r.nextKey-r.oldest)
	}
	snap := lt.Snapshot()
	keys := snap.Col(0).I64
	var rows []int
	for r.liCursor < snap.Rows && keys[r.liCursor] <= last {
		rows = append(rows, r.liCursor)
		r.liCursor++
	}
	lw := lt.BeginWrite()
	lw.Delete(rows...)
	r.commit(lw, tr)
	ow := ot.BeginWrite()
	for k := r.oldest; k <= last; k++ {
		ow.Delete(int(k - 1))
	}
	r.commit(ow, tr)
	r.oldest = last + 1
	return nil
}
