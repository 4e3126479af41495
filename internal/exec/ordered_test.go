package exec

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/scalar"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// orderedFixture builds two tables with duplicate and NULL keys, sorted by
// their key columns, plus the metadata instances and scan plans over them.
func orderedFixture(t *testing.T) (*Context, *opt.Plan, *opt.Plan, []scalar.ColID, []scalar.ColID) {
	t.Helper()
	cat := catalog.New()
	lt := &catalog.Table{Name: "l", OrderedBy: []int{0}, Cols: []catalog.Column{
		{Name: "k", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindString},
	}}
	rt := &catalog.Table{Name: "r", OrderedBy: []int{0}, Cols: []catalog.Column{
		{Name: "k", Type: sqltypes.KindInt}, {Name: "w", Type: sqltypes.KindString},
	}}
	if err := cat.Add(lt); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(rt); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore()
	ii, ss := sqltypes.NewInt, sqltypes.NewString
	ltab := st.Create("l")
	for _, r := range []sqltypes.Row{
		{sqltypes.Null, ss("lnull")},
		{ii(1), ss("l1a")},
		{ii(1), ss("l1b")},
		{ii(2), ss("l2")},
		{ii(4), ss("l4")},
	} {
		ltab.Append(r)
	}
	rtab := st.Create("r")
	for _, r := range []sqltypes.Row{
		{sqltypes.Null, ss("rnull")},
		{ii(1), ss("r1a")},
		{ii(1), ss("r1b")},
		{ii(3), ss("r3")},
		{ii(4), ss("r4")},
	} {
		rtab.Append(r)
	}
	storage.AnalyzeTable(lt, ltab)
	storage.AnalyzeTable(rt, rtab)

	md := logical.NewMetadata()
	lrel := md.AddInstance(lt, "l")
	rrel := md.AddInstance(rt, "r")

	lscan := &opt.Plan{
		Op: opt.PScan, Rel: lrel.ID,
		Cols:     []scalar.ColID{lrel.ColID(0), lrel.ColID(1)},
		Provided: []scalar.ColID{lrel.ColID(0)},
		Rows:     5,
	}
	rscan := &opt.Plan{
		Op: opt.PScan, Rel: rrel.ID,
		Cols:     []scalar.ColID{rrel.ColID(0), rrel.ColID(1)},
		Provided: []scalar.ColID{rrel.ColID(0)},
		Rows:     5,
	}
	ctx := &Context{
		ctx:          context.Background(),
		Store:        st,
		Md:           md,
		spools:       map[int]*spoolEntry{},
		subqueryVals: map[int]sqltypes.Datum{},
		stats:        newCollector(1, 1, false),
	}
	return ctx, lscan, rscan,
		[]scalar.ColID{lrel.ColID(0)}, []scalar.ColID{rrel.ColID(0)}
}

// TestMergeJoinMatchesHashJoin: identical inputs, identical semantics — the
// NULL keys never match, duplicate keys produce the full cross.
func TestMergeJoinMatchesHashJoin(t *testing.T) {
	ctx, lscan, rscan, lk, rk := orderedFixture(t)
	outCols := append(append([]scalar.ColID(nil), lscan.Cols...), rscan.Cols...)
	merge := &opt.Plan{
		Op: opt.PMergeJoin, Children: []*opt.Plan{lscan, rscan},
		LeftKeys: lk, RightKeys: rk, Cols: outCols,
	}
	hash := &opt.Plan{
		Op: opt.PHashJoin, Children: []*opt.Plan{lscan, rscan},
		LeftKeys: lk, RightKeys: rk, Cols: outCols,
	}
	mrows, err := ctx.exec(merge)
	if err != nil {
		t.Fatal(err)
	}
	hrows, err := ctx.exec(hash)
	if err != nil {
		t.Fatal(err)
	}
	// 1-block cross (2x2=4) + key 4 (1) = 5 rows; NULLs excluded; 2 and 3
	// unmatched.
	if len(mrows) != 5 {
		t.Fatalf("merge join rows = %d, want 5: %v", len(mrows), mrows)
	}
	canon := func(rows []sqltypes.Row) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			m[r.String()]++
		}
		return m
	}
	cm, ch := canon(mrows), canon(hrows)
	if len(cm) != len(ch) {
		t.Fatalf("merge %v vs hash %v", cm, ch)
	}
	for k, n := range cm {
		if ch[k] != n {
			t.Errorf("row %q: merge %d vs hash %d", k, n, ch[k])
		}
	}
	// Merge join output is key-ordered.
	prev := int64(-1 << 62)
	for _, r := range mrows {
		if k := r[0].Int(); k < prev {
			t.Error("merge join output not sorted by key")
		} else {
			prev = k
		}
	}
}

// TestMergeJoinResidualFilter applies the non-equi residual on joined rows.
func TestMergeJoinResidualFilter(t *testing.T) {
	ctx, lscan, rscan, lk, rk := orderedFixture(t)
	outCols := append(append([]scalar.ColID(nil), lscan.Cols...), rscan.Cols...)
	// Residual: l.v <> r.w (drops nothing here except... all differ) and a
	// strict filter l.k < 4 to drop the key-4 match.
	res := scalar.Cmp(scalar.OpLt, scalar.Col(lscan.Cols[0]), scalar.ConstInt(4))
	merge := &opt.Plan{
		Op: opt.PMergeJoin, Children: []*opt.Plan{lscan, rscan},
		LeftKeys: lk, RightKeys: rk, Cols: outCols, Filter: res,
	}
	rows, err := ctx.exec(merge)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("residual-filtered merge join rows = %d, want 4", len(rows))
	}
}

// TestStreamAggMatchesHashAgg on sorted input.
func TestStreamAggMatchesHashAgg(t *testing.T) {
	ctx, lscan, _, _, _ := orderedFixture(t)
	aggOut := ctx.Md.AddSynthesized("n", sqltypes.KindInt)
	mk := func(op opt.PhysOp) *opt.Plan {
		return &opt.Plan{
			Op: op, Children: []*opt.Plan{lscan},
			GroupCols: []scalar.ColID{lscan.Cols[0]},
			Aggs:      []logical.AggDef{{Kind: scalar.AggCountStar, Out: aggOut}},
			Cols:      []scalar.ColID{lscan.Cols[0], aggOut},
		}
	}
	srows, err := ctx.exec(mk(opt.PStreamAgg))
	if err != nil {
		t.Fatal(err)
	}
	hrows, err := ctx.exec(mk(opt.PHashAgg))
	if err != nil {
		t.Fatal(err)
	}
	if len(srows) != len(hrows) || len(srows) != 4 {
		t.Fatalf("stream %d groups vs hash %d, want 4 (NULL, 1, 2, 4)", len(srows), len(hrows))
	}
	// Count per key must agree.
	counts := func(rows []sqltypes.Row) map[string]int64 {
		m := map[string]int64{}
		for _, r := range rows {
			m[r[0].String()] = r[1].Int()
		}
		return m
	}
	cs, chh := counts(srows), counts(hrows)
	for k, v := range cs {
		if chh[k] != v {
			t.Errorf("group %q: stream %d vs hash %d", k, v, chh[k])
		}
	}
	if cs["1"] != 2 {
		t.Errorf("key 1 count = %d, want 2", cs["1"])
	}
}

// TestSortOperator sorts by multiple keys with NULLs first.
func TestSortOperator(t *testing.T) {
	ctx, lscan, _, _, _ := orderedFixture(t)
	sortPlan := &opt.Plan{
		Op: opt.PSort, Children: []*opt.Plan{lscan},
		SortCols: []scalar.ColID{lscan.Cols[1]}, // by the string column
		Cols:     lscan.Cols,
	}
	rows, err := ctx.exec(sortPlan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if sqltypes.Compare(rows[i-1][1], rows[i][1]) > 0 {
			t.Fatalf("not sorted: %v", rows)
		}
	}
}
