package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"testing"
	"time"

	execpkg "repro/internal/exec"
	"repro/internal/sqltypes"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHighestSupportedPercentile(t *testing.T) {
	// The highest percentile that leaves at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {95, 48}, {100, 50}, {25, 20}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("quartiles of three = %g %g %g", q1, q2, q3)
	}
	if got := spread([]float64{100, 100, 100, 100}); got != 0 {
		t.Errorf("spread of equal values = %g", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	var l spanLog
	root := l.add(-1, 0, "execute", 0, 100, nil)
	wave := l.add(root, 0, "wave", 10, 60, nil)
	// Two spools run in parallel inside the wave and overlap from 30 to 40.
	l.add(wave, 0, "spool", 10, 40, nil)
	l.add(wave, 0, "spool", 30, 60, nil)
	// A statement runs after the wave; a child that overhangs its parent is
	// clipped to it.
	stmt := l.add(root, 0, "statement", 70, 90, nil)
	l.add(stmt, 0, "spool-wait", 85, 95, nil)

	self := selfTimes(l.spans)
	want := []int64{
		100 - 50 - 20, // execute: minus the wave and the statement
		0,             // wave: its spools cover all of it, the overlap counted once
		30, 30,        // the spools have no children
		20 - 5, // statement: minus the clipped part of the wait
		10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	busy := layerBusy(l.spans)
	if !near(busy["exec"], float64(30+0+30+30+15+10)/1000) {
		t.Errorf("exec busy = %g ms", busy["exec"])
	}
	if wall := sumByName(l.spans); !near(wall["spool"], 0.06) {
		t.Errorf("spool wall = %g ms", wall["spool"])
	}
}

func TestFailRatioCountsEveryKindOfFailure(t *testing.T) {
	a := tally{Attempted: 100, Errored: 1, Refused: 2, TimedOut: 3, Wrong: 4}
	if a.failed() != 10 {
		t.Errorf("failed = %d, want 10", a.failed())
	}
	if !near(a.failRatio(), 0.1) {
		t.Errorf("failRatio = %g, want 0.1", a.failRatio())
	}
	if (tally{}).failRatio() != 0 {
		t.Error("nothing attempted must not divide by zero")
	}
}

func TestResultLineSchema(t *testing.T) {
	in := result{Correct: true, Attempted: 1000, Failed: 0, Metrics: map[string]metric{
		"lat_p50_ms": {Value: 1.2034, Unit: "ms"},
		"setup_s":    {Value: 0.8127, Unit: "s"},
	}}
	line, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	got := sortedKeys(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys = %v, want exactly %v", got, want)
	}
	var out result
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result: %+v != %+v", out, in)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	rf := resultFile{Schema: 1, Env: environment{GoVersion: "go1.24", GOMAXPROCS: 2, NumCPU: 2, Commit: "abc"}, Runs: []run{{
		Workload: "paper.tables", Trace: 0, Seconds: 22,
		result:   result{Correct: true, Attempted: 5, Metrics: map[string]metric{"lat_p50_ms": {Value: 2, Unit: "ms"}}},
		Tally:    tally{Attempted: 5},
		Samples:  5,
		Info:     map[string]float64{"fail_ratio": 0},
		Manifest: manifest{Seed: 42, Clients: 1, SQLHashes: []string{"aa"}, BatchSizes: []int{3}, Strategies: map[string]int{"greedy": 1}, TrafficSum: "bb"},
	}}}
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResultFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&rf, back) {
		t.Errorf("round trip changed the file:\n%+v\n%+v", rf, *back)
	}
	if _, err := decodeResultFile([]byte(`{"schema": 2}`)); err == nil {
		t.Error("a file of another schema must be refused")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "stmts_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name     string
		ms       metricSpec
		old, new []float64
		want     string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, []float64{108, 109, 107, 108, 108}, "ok"},
		{"slower beyond bound", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"throughput down", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"throughput up", higher, steady, []float64{150, 151, 149, 150, 150}, "ok"},
		{"too noisy to tell", lower, []float64{100, 140, 70, 120, 90}, []float64{130, 131, 129, 130, 130}, "unresolved"},
	} {
		if got := judge(c.ms, c.old, c.new); got.Status != c.want {
			t.Errorf("%s: %s, want %s (%+v)", c.name, got.Status, c.want, got)
		}
	}
}

func stmt(names []string, rows ...sqltypes.Row) []*execpkg.StatementResult {
	return []*execpkg.StatementResult{{Names: names, Rows: rows}}
}

func TestDiffCanon(t *testing.T) {
	i, f, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	names := []string{"k", "v"}
	want := canonResult(stmt(names, sqltypes.Row{i(1), f(0.12345)}, sqltypes.Row{i(2), f(7)}), nil)

	reordered := canonResult(stmt(names, sqltypes.Row{i(2), f(7.0000000001)}, sqltypes.Row{i(1), f(0.12344999999)}), nil)
	if d := diffCanon(reordered, want); d != "" {
		t.Errorf("row order and the last bits of a float must not matter: %s", d)
	}
	if d := diffCanon(canonResult(stmt(names, sqltypes.Row{i(1), f(0.12345)}, sqltypes.Row{i(2), f(7.1)}), nil), want); d == "" {
		t.Error("a different value must be reported")
	}
	if d := diffCanon(canonResult(stmt(names, sqltypes.Row{i(1), f(0.12345)}), nil), want); d == "" {
		t.Error("a missing row must be reported")
	}
	if d := diffCanon(canonResult(stmt(names, sqltypes.Row{i(1), f(0.12345)}, sqltypes.Row{i(1), f(0.12345)}), nil), want); d == "" {
		t.Error("rows are a multiset: a duplicate may not stand in for another row")
	}
	if d := diffCanon(canonResult(stmt([]string{"k", "w"}, sqltypes.Row{i(1), f(0.12345)}, sqltypes.Row{i(2), f(7)}), nil), want); d == "" {
		t.Error("different column names must be reported")
	}

	// With ORDER BY v the sequence of v must match; rows tied on v may swap.
	order := [][]string{{"v"}}
	sorted := canonResult(stmt(names, sqltypes.Row{i(1), f(1)}, sqltypes.Row{i(2), f(1)}, sqltypes.Row{i(3), f(2)}), order)
	tieSwap := canonResult(stmt(names, sqltypes.Row{i(2), f(1)}, sqltypes.Row{i(1), f(1)}, sqltypes.Row{i(3), f(2)}), order)
	if d := diffCanon(tieSwap, sorted); d != "" {
		t.Errorf("rows tied on the sort key may swap: %s", d)
	}
	unsorted := canonResult(stmt(names, sqltypes.Row{i(3), f(2)}, sqltypes.Row{i(1), f(1)}, sqltypes.Row{i(2), f(1)}), order)
	if d := diffCanon(unsorted, sorted); d == "" {
		t.Error("a result out of its ORDER BY order must be reported")
	}

	// The HTTP form of the same result: JSON does not tell 7 from 7.0.
	body := []byte(`{"statements":[{"columns":["k","v","n"],"rows":[[2,7,null],[1,0.12345,"x"]]}],"coalesced":2}`)
	got, err := canonJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	wantJ := canonResult(stmt([]string{"k", "v", "n"}, sqltypes.Row{i(1), f(0.12345), s("x")}, sqltypes.Row{i(2), f(7), sqltypes.Null}), nil)
	if d := diffCanon(got, wantJ); d != "" {
		t.Errorf("JSON result differs from the same rows as datums: %s", d)
	}
}

func TestOrderColumns(t *testing.T) {
	got := sqlOrder("select a, sum(b) as s from t group by a order by s desc; select a from t")
	if want := [][]string{{"s"}, nil}; !reflect.DeepEqual(got, want) {
		t.Errorf("order columns = %v, want %v", got, want)
	}
}

func TestSpanMetricsShares(t *testing.T) {
	var l spanLog
	for op := 0; op < 2; op++ {
		base := int64(op) * 1000
		root := l.add(-1, op, "op", base, base+1000, nil)
		b := l.add(root, op, "batch", base, base+1000, nil)
		l.add(b, op, "parse", base, base+10, map[string]any{"alloc_bytes": uint64(1 << 20)})
		o := l.add(b, op, "optimize", base+10, base+200, nil)
		l.add(o, op, "candidates", base+20, base+100, nil)
		l.add(o, op, "subset-reoptimization", base+100, base+190, nil)
		l.add(b, op, "execute", base+200, base+1000, nil)
	}
	m := spanMetrics(l.spans, 2)
	for name, want := range map[string]float64{
		"op_ms": 1, "parse_ms": 0.01, "candidates_ms": 0.08, "exec_ms": 0.8, "exec_share": 0.8,
		"search_ms":      0.09 + 0.02, // subset search plus the optimize span's own time
		"front_alloc_mb": 1,
	} {
		if !near(m[name], want) {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

func TestReaperStopsChild(t *testing.T) {
	r := &reaper{}
	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skipf("no sleep binary: %v", err)
	}
	r.watch(cmd)
	done := make(chan struct{})
	go func() {
		r.stopAll()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stopAll did not return")
	}
	if cmd.ProcessState == nil {
		t.Fatal("child was not waited for")
	}
	r.stopAll() // a second stop has nothing left to do
}

func TestSpecAndCodeAgree(t *testing.T) {
	// BENCHMARK.json is read from the working directory, which for this
	// package's tests is benchmark/.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := spec.workloadNames()
	sort.Strings(names)
	if want := []string{"cache.churn", "paper.tables", "search.large", "serve.http"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, want %v", names, want)
	}
	h := &harness{spec: spec, reap: &reaper{}, serverBin: "unused"}
	for _, n := range names {
		if _, err := h.newWorkload(context.Background(), n); err != nil {
			t.Errorf("workload %s: %v", n, err)
		}
	}
	if _, err := h.newWorkload(context.Background(), "nope"); err == nil {
		t.Error("an unknown workload must be refused")
	}
	if h.bound("setup_s") != 0.25 || h.bound("lat_p50_ms") <= 0 {
		t.Errorf("bounds: setup_s %g, lat_p50_ms %g", h.bound("setup_s"), h.bound("lat_p50_ms"))
	}
}
