package csedb_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/csedb"
	"repro/internal/catalog"
	"repro/internal/sqltypes"
)

func TestCreateTableAndInsertErrors(t *testing.T) {
	db := csedb.Open(csedb.Options{})
	cols := []catalog.Column{{Name: "a", Type: sqltypes.KindInt}}
	if err := db.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", cols); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := db.Insert("nosuch", nil); err == nil {
		t.Error("insert into missing table must fail")
	}
	// Arity check.
	if err := db.Insert("t", []csedb.Row{{sqltypes.NewInt(1), sqltypes.NewInt(2)}}); err == nil {
		t.Error("row arity mismatch must fail")
	}
	if err := db.Insert("t", []csedb.Row{{sqltypes.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Run("select a from t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Statements[0].Rows) != 1 {
		t.Error("inserted row not visible")
	}
}

func TestInsertRefreshesStatistics(t *testing.T) {
	db := csedb.Open(csedb.Options{})
	cols := []catalog.Column{{Name: "a", Type: sqltypes.KindInt}}
	if err := db.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	rows := make([]csedb.Row, 50)
	for i := range rows {
		rows[i] = csedb.Row{sqltypes.NewInt(int64(i))}
	}
	if err := db.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Stats.RowCount != 50 {
		t.Errorf("stats not refreshed: %g", tab.Stats.RowCount)
	}
}

func TestRunErrors(t *testing.T) {
	db := openTPCH(t, withCSE())
	if _, err := db.Run("selekt broken"); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := db.Run("select nothere from customer"); err == nil {
		t.Error("bind error must surface")
	}
	if _, err := db.Explain("selekt broken"); err == nil {
		t.Error("explain must surface parse errors")
	}
}

func TestQueryViewMissing(t *testing.T) {
	db := openTPCH(t, withCSE())
	if _, err := db.QueryView("nope"); err == nil {
		t.Error("missing view must error")
	}
}

func TestViewNameCollision(t *testing.T) {
	db := openTPCH(t, withCSE())
	ddl := "create materialized view v as select c_nationkey, count(*) as n from customer group by c_nationkey"
	if _, err := db.Run(ddl); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(ddl); err == nil {
		t.Error("duplicate view must fail (backing table exists)")
	}
}

// TestMaintenanceWithOrdersDelta: deltas on a mid-join table (orders) are
// maintained correctly too — the maintenance expression joins customer with
// the order delta and lineitem. New orders must reference existing
// customers and lineitems... since lineitems of new orders don't exist, the
// aggregate contribution is empty but the path still runs; to get a real
// contribution we insert lineitems first (no view references lineitem's
// delta semantics here — views are recomputed against delta orders joined
// with *current* lineitem, so inserting lineitems first is the consistent
// order for insert-only deltas).
func TestMaintenanceWithOrdersDelta(t *testing.T) {
	db := openTPCH(t, withCSE())
	if _, err := db.Run(`
create materialized view ord_sum as
select c_nationkey, sum(l_extendedprice) as rev
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
group by c_nationkey`); err != nil {
		t.Fatal(err)
	}

	// New order 900001 for customer 1 with two lineitems.
	ii, ff, ss := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	date := sqltypes.MustParseDate("1995-05-05")
	if err := db.Insert("lineitem", []csedb.Row{
		{ii(900001), ii(1), ii(1), ii(1), ff(5), ff(1000), ff(0), ff(0), ss("N"), date, ss("AIR")},
		{ii(900001), ii(1), ii(1), ii(2), ff(3), ff(500), ff(0), ff(0), ss("N"), date, ss("AIR")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.InsertWithViewMaintenance("orders", []csedb.Row{
		{ii(900001), ii(1), ss("O"), ff(1500), date, ss("1-URGENT"), ss("Clerk#1"), ii(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ViewsMaintained) != 1 {
		t.Fatalf("views maintained = %v", res.ViewsMaintained)
	}

	// The view must now equal recomputation from scratch.
	recomputed, err := db.Run(`
select c_nationkey, sum(l_extendedprice) as rev
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
group by c_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.QueryView("ord_sum")
	if err != nil {
		t.Fatal(err)
	}
	a, b := canonical(got), canonical(recomputed.Statements[0].Rows)
	if len(a) != len(b) {
		t.Fatalf("view has %d groups, recomputation %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d: view %q vs recomputed %q", i, a[i], b[i])
		}
	}
}

func TestExplainNoCSEPlain(t *testing.T) {
	db := openTPCH(t, noCSE())
	plan, err := db.Explain("select c_name from customer where c_acctbal > 0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "CSE") {
		t.Error("no-CSE explain must not mention candidates")
	}
	if !strings.Contains(plan, "Scan customer") {
		t.Errorf("plan missing scan:\n%s", plan)
	}
}

func TestSettingsToggle(t *testing.T) {
	db := openTPCH(t, withCSE())
	s := db.Settings()
	if !s.EnableCSE {
		t.Fatal("default settings must enable CSE")
	}
	s.EnableCSE = false
	res, err := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: &s}).Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 0 {
		t.Error("settings toggle ignored")
	}
}

// TestConcurrentReads: read-only queries are safe to run from multiple
// goroutines — each Run builds its own metadata, memo, optimizer, and
// executor; the store takes a read lock.
func TestConcurrentReads(t *testing.T) {
	db := openTPCH(t, withCSE())
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 3; i++ {
				res, err := db.Run(example1SQL)
				if err != nil {
					errc <- err
					return
				}
				if len(res.Statements) != 3 {
					errc <- fmt.Errorf("worker %d: %d statements", w, len(res.Statements))
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpoolMaterializedOnce: executing the Example 1 batch with a shared
// CSE materializes its spool exactly once, and its row count matches the
// plan's expectation order of magnitude (it is the covering aggregate).
func TestSpoolMaterializedOnce(t *testing.T) {
	db := openTPCH(t, withCSE())
	res, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.UsedCSEs) != 1 {
		t.Fatalf("used CSEs = %v", res.Stats.UsedCSEs)
	}
	if len(res.ExecStats.SpoolRows) != 1 {
		t.Fatalf("spools materialized = %v, want exactly the one used CSE", res.ExecStats.SpoolRows)
	}
	for id, n := range res.ExecStats.SpoolRows {
		if n <= 0 {
			t.Errorf("spool %d materialized %d rows", id, n)
		}
	}
}

func TestMaintenanceNoAffectedViews(t *testing.T) {
	db := openTPCH(t, withCSE())
	if _, err := db.Run(`create materialized view vv as
select c_nationkey, count(*) as n from customer group by c_nationkey`); err != nil {
		t.Fatal(err)
	}
	// Inserting into part affects no view: maintenance is a no-op but the
	// base insert still lands.
	before, err := db.Run("select count(*) as n from part")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.InsertWithViewMaintenance("part", []csedb.Row{{
		sqltypes.NewInt(999991), sqltypes.NewString("x"), sqltypes.NewString("m"),
		sqltypes.NewString("b"), sqltypes.NewString("t"), sqltypes.NewInt(1),
		sqltypes.NewFloat(1), sqltypes.NewInt(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ViewsMaintained) != 0 {
		t.Errorf("views maintained = %v, want none", res.ViewsMaintained)
	}
	after, err := db.Run("select count(*) as n from part")
	if err != nil {
		t.Fatal(err)
	}
	if after.Statements[0].Rows[0][0].Int() != before.Statements[0].Rows[0][0].Int()+1 {
		t.Error("base insert lost")
	}
}

// TestDeltaTableCleanedUp: maintenance drops its delta table afterwards.
func TestDeltaTableCleanedUp(t *testing.T) {
	db := openTPCH(t, withCSE())
	if _, err := db.Run(`create materialized view mv0 as
select c_nationkey, count(*) as n from customer group by c_nationkey`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertWithViewMaintenance("customer", []csedb.Row{{
		sqltypes.NewInt(888888), sqltypes.NewString("X"), sqltypes.NewString("a"),
		sqltypes.NewInt(1), sqltypes.NewString("p"), sqltypes.NewFloat(1),
		sqltypes.NewString("BUILDING"), sqltypes.NewString("c"),
	}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Catalog().Names() {
		if strings.HasPrefix(name, "delta_") {
			t.Errorf("delta table %q not cleaned up", name)
		}
	}
}
