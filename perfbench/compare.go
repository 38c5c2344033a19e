package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// kind is the value class the comparator distinguishes. Integers, strings
// and dates compare exactly; floats compare to a relative tolerance.
type kind uint8

const (
	kInt kind = iota
	kFloat
	kStr
	kDate
)

func (k kind) String() string {
	return [...]string{"int", "float", "string", "date"}[k]
}

// val is one cell of a result table.
type val struct {
	k kind
	i int64 // kInt, kDate (days since 1970-01-01)
	f float64
	s string
}

func iv(x int64) val    { return val{k: kInt, i: x} }
func fv(x float64) val  { return val{k: kFloat, f: x} }
func sv(x string) val   { return val{k: kStr, s: x} }
func dv(days int64) val { return val{k: kDate, i: days} }

func (v val) String() string {
	switch v.k {
	case kInt:
		return strconv.FormatInt(v.i, 10)
	case kFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case kDate:
		return vector.DateString(v.i)
	}
	return strconv.Quote(v.s)
}

// table is a result in the comparator's form: typed columns and rows.
type table struct {
	kinds []kind
	rows  [][]val
}

// sortKey orders result rows by output column col.
type sortKey struct {
	col  int
	desc bool
}

// shape says how a statement's rows may be compared: order lists the
// statement's ORDER BY keys (checked on the engine's own rows), and
// subsetLimit marks a LIMIT without ORDER BY, whose rows are any
// subsetLimit rows of the full answer.
type shape struct {
	order       []sortKey
	subsetLimit int
}

// floatTol is the relative tolerance for floats. Parallel and fused
// aggregation re-associate float sums, so the last bits of a sum differ
// from a row-at-a-time reference.
const floatTol = 1e-9

func floatEq(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= floatTol*m
}

func valEq(a, b val) bool {
	if a.k != b.k {
		return false
	}
	switch a.k {
	case kFloat:
		return floatEq(a.f, b.f)
	case kStr:
		return a.s == b.s
	}
	return a.i == b.i
}

// valCmp orders two values of one kind exactly.
func valCmp(a, b val) int {
	switch a.k {
	case kFloat:
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		}
		return 0
	case kStr:
		return strings.Compare(a.s, b.s)
	}
	switch {
	case a.i < b.i:
		return -1
	case a.i > b.i:
		return 1
	}
	return 0
}

// canonical returns the rows sorted by every non-float column, then every
// float column, so that two tables whose floats differ in their last bits
// line up row for row.
func canonical(t table) [][]val {
	var cols []int
	for c, k := range t.kinds {
		if k != kFloat {
			cols = append(cols, c)
		}
	}
	for c, k := range t.kinds {
		if k == kFloat {
			cols = append(cols, c)
		}
	}
	rows := append([][]val(nil), t.rows...)
	sort.SliceStable(rows, func(a, b int) bool {
		for _, c := range cols {
			if d := valCmp(rows[a][c], rows[b][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return rows
}

func rowEq(a, b []val) bool {
	for i := range a {
		if !valEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func rowString(r []val) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// compare checks got (the engine's answer) against want (the reference).
func compare(got, want table, sh shape) error {
	if len(got.kinds) != len(want.kinds) {
		return fmt.Errorf("got %d columns, want %d", len(got.kinds), len(want.kinds))
	}
	for i := range got.kinds {
		if got.kinds[i] != want.kinds[i] {
			return fmt.Errorf("column %d is %v, want %v", i, got.kinds[i], want.kinds[i])
		}
	}
	for _, r := range got.rows {
		if len(r) != len(got.kinds) {
			return fmt.Errorf("ragged row %s", rowString(r))
		}
	}
	if sh.subsetLimit > 0 {
		n := min(sh.subsetLimit, len(want.rows))
		if len(got.rows) != n {
			return fmt.Errorf("got %d rows, want %d", len(got.rows), n)
		}
		used := make([]bool, len(want.rows))
	next:
		for _, r := range got.rows {
			for j, w := range want.rows {
				if !used[j] && rowEq(r, w) {
					used[j] = true
					continue next
				}
			}
			return fmt.Errorf("row %s is not in the reference answer", rowString(r))
		}
	} else {
		if len(got.rows) != len(want.rows) {
			return fmt.Errorf("got %d rows, want %d", len(got.rows), len(want.rows))
		}
		g, w := canonical(got), canonical(want)
		for i := range g {
			if !rowEq(g[i], w[i]) {
				return fmt.Errorf("row %s, want %s", rowString(g[i]), rowString(w[i]))
			}
		}
	}
	for i := 1; i < len(got.rows); i++ {
		if c := orderCmp(got.rows[i-1], got.rows[i], sh.order); c > 0 {
			return fmt.Errorf("rows %d and %d are out of order: %s before %s",
				i-1, i, rowString(got.rows[i-1]), rowString(got.rows[i]))
		}
	}
	return nil
}

func orderCmp(a, b []val, keys []sortKey) int {
	for _, k := range keys {
		d := valCmp(a[k.col], b[k.col])
		if k.desc {
			d = -d
		}
		if d != 0 {
			return d
		}
	}
	return 0
}

func kindOf(t vector.Type) kind {
	switch t {
	case vector.Float64:
		return kFloat
	case vector.String:
		return kStr
	case vector.Date:
		return kDate
	}
	return kInt
}

// fromBatches converts an in-process result to a table.
func fromBatches(schema catalog.Schema, batches []*vector.Batch) table {
	t := table{kinds: make([]kind, len(schema))}
	for i, c := range schema {
		t.kinds[i] = kindOf(c.Typ)
	}
	for _, b := range batches {
		for r := 0; r < b.Len(); r++ {
			p := b.RowIdx(r)
			row := make([]val, len(b.Vecs))
			for c, v := range b.Vecs {
				switch v.Typ {
				case vector.Float64:
					row[c] = fv(v.F64[p])
				case vector.String:
					row[c] = sv(v.Str[p])
				case vector.Date:
					row[c] = dv(v.I64[p])
				case vector.Bool:
					row[c] = iv(0)
					if v.B[p] {
						row[c] = iv(1)
					}
				default:
					row[c] = iv(v.I64[p])
				}
			}
			t.rows = append(t.rows, row)
		}
	}
	return t
}

// fromText decodes a wire result, given in PostgreSQL text format, into a
// table with the reference's column kinds.
func fromText(kinds []kind, rows [][]string) (table, error) {
	t := table{kinds: kinds}
	for _, r := range rows {
		if len(r) != len(kinds) {
			return t, fmt.Errorf("wire row has %d fields, want %d", len(r), len(kinds))
		}
		row := make([]val, len(r))
		for c, s := range r {
			switch kinds[c] {
			case kInt:
				x, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return t, fmt.Errorf("column %d: %w", c, err)
				}
				row[c] = iv(x)
			case kFloat:
				x, err := parseFloatText(s)
				if err != nil {
					return t, fmt.Errorf("column %d: %w", c, err)
				}
				row[c] = fv(x)
			case kDate:
				d, err := time.Parse("2006-01-02", s)
				if err != nil {
					return t, fmt.Errorf("column %d: %w", c, err)
				}
				row[c] = dv(d.Unix() / 86400)
			default:
				row[c] = sv(s)
			}
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}

func parseFloatText(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "Infinity":
		return math.Inf(1), nil
	case "-Infinity":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}
