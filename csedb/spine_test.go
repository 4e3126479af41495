package csedb_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
	"repro/internal/obs"
)

// spineEntry is one way into the engine that executes a batch. Every such
// entry point is plan → execute under one observed batch, so they must agree
// on the plan and leave the same evidence behind; a new entry point is one
// more row here.
type spineEntry struct {
	name string
	// run drives the entry point end to end and reports the estimated cost
	// it ran at (two decimals, as EXPLAIN ANALYZE prints it) and, when the
	// entry point returns rows, the rows rendered losslessly.
	run func(ctx context.Context, db *csedb.DB, sql string) (cost string, rows []string, err error)
	// plans says whether the run parses and plans inside its observed batch,
	// and so records planning time and planning failures. Prepare is a
	// planning-only call like Optimize and Explain: when it fails, nothing
	// ran, and it leaves no flight record.
	plans bool
}

var spineEntries = []spineEntry{
	{
		name: "Run",
		run: func(ctx context.Context, db *csedb.DB, sql string) (string, []string, error) {
			res, err := db.RunContext(ctx, sql)
			if err != nil {
				return "", nil, err
			}
			return fmt.Sprintf("%.2f", res.EstimatedCost), batchRows(res), nil
		},
		plans: true,
	},
	{
		name: "Prepare+ExecutePrepared",
		run: func(ctx context.Context, db *csedb.DB, sql string) (string, []string, error) {
			p, err := db.Prepare(sql)
			if err != nil {
				return "", nil, err
			}
			res, err := db.ExecutePrepared(ctx, p, nil)
			if err != nil {
				return "", nil, err
			}
			return fmt.Sprintf("%.2f", res.EstimatedCost), batchRows(res), nil
		},
	},
	{
		name: "ExplainAnalyze",
		run: func(ctx context.Context, db *csedb.DB, sql string) (string, []string, error) {
			text, err := db.ExplainAnalyzeContext(ctx, sql)
			if err != nil {
				return "", nil, err
			}
			var cost string
			if _, err := fmt.Sscanf(text, "estimated cost: %s", &cost); err != nil {
				return "", nil, fmt.Errorf("no estimated cost in %q: %v", strings.SplitN(text, "\n", 2)[0], err)
			}
			return cost, nil, nil
		},
		plans: true,
	},
}

func batchRows(res *csedb.BatchResult) []string {
	var out []string
	for i, st := range res.Statements {
		out = append(out, fmt.Sprintf("-- statement %d", i+1))
		out = append(out, exactRows(st.Rows)...)
	}
	return out
}

// newestRecord returns the flight recorder's latest record, or an empty one.
func newestRecord(db *csedb.DB) *obs.BatchRecord {
	if recent := db.FlightRecorder().Recent(); len(recent) > 0 {
		return recent[0]
	}
	return &obs.BatchRecord{}
}

// TestSpineEntryPointsAgree: on the paper's four batches every entry point
// chooses the same plan (candidates, CSEs used, estimated cost), Run and a
// prepared execution return identical rows, each run leaves exactly one
// flight record whose span tree is fully closed, and only the entry points
// that plan as part of the run add an optimize_seconds observation.
func TestSpineEntryPointsAgree(t *testing.T) {
	db := openTPCHOpts(t, csedb.Options{SpanTracing: true})
	tables := []string{bench.Table1SQL(), bench.Table2SQL(), bench.Table3SQL(), bench.Table4SQL()}
	for ti, sql := range tables {
		var wantCost string
		var wantRows []string
		var want *obs.BatchRecord
		for _, e := range spineEntries {
			before := newestRecord(db).Seq
			optBefore := db.Metrics().Snapshot()["optimize_seconds_count"]
			cost, rows, err := e.run(context.Background(), db, sql)
			if err != nil {
				t.Fatalf("table %d, %s: %v", ti+1, e.name, err)
			}
			rec := newestRecord(db)
			if rec.Seq != before+1 || rec.Err != "" {
				t.Fatalf("table %d, %s: flight records %d → %d (err %q), want exactly one clean record", ti+1, e.name, before, rec.Seq, rec.Err)
			}
			if obs.Find(rec.Spans, "execute") == nil {
				t.Errorf("table %d, %s: span tree has no execute span", ti+1, e.name)
			}
			obs.Walk(rec.Spans, func(n *obs.SpanNode) {
				if n.Attrs["unfinished"] != nil {
					t.Errorf("table %d, %s: span %q left unfinished", ti+1, e.name, n.Name)
				}
			})
			wantOpt := optBefore
			if e.plans {
				wantOpt++
			}
			if got := db.Metrics().Snapshot()["optimize_seconds_count"]; got != wantOpt {
				t.Errorf("table %d, %s: optimize_seconds observations %g → %g, want %g", ti+1, e.name, optBefore, got, wantOpt)
			}
			if want == nil {
				wantCost, wantRows, want = cost, rows, rec
				continue
			}
			if cost != wantCost || rec.Candidates != want.Candidates || rec.UsedCSEs != want.UsedCSEs {
				t.Errorf("table %d, %s: cost %s, %d candidates, %d CSEs used; %s had cost %s, %d, %d",
					ti+1, e.name, cost, rec.Candidates, rec.UsedCSEs, spineEntries[0].name, wantCost, want.Candidates, want.UsedCSEs)
			}
			if rows != nil && strings.Join(rows, "\n") != strings.Join(wantRows, "\n") {
				t.Errorf("table %d, %s: rows differ from %s's", ti+1, e.name, spineEntries[0].name)
			}
		}
	}
}

// TestSpineFailuresLeaveOneRecord: a batch that dies at parse, at bind or in
// the executor (a cancelled context) leaves exactly one failed flight record
// whose root span carries the error, from every entry point that runs that
// stage inside its observed batch.
func TestSpineFailuresLeaveOneRecord(t *testing.T) {
	db := openTPCHOpts(t, csedb.Options{SpanTracing: true})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	stages := []struct {
		name     string
		ctx      context.Context
		sql      string
		planning bool
	}{
		{"parse", context.Background(), "select from where", true},
		{"bind", context.Background(), "select x from no_such_table", true},
		{"execute", cancelled, example1SQL, false},
	}
	for _, st := range stages {
		for _, e := range spineEntries {
			before := newestRecord(db).Seq
			if _, _, err := e.run(st.ctx, db, st.sql); err == nil {
				t.Fatalf("%s failure, %s: got no error", st.name, e.name)
			}
			rec := newestRecord(db)
			if st.planning && !e.plans {
				if rec.Seq != before {
					t.Errorf("%s failure, %s: a planning-only call left a flight record", st.name, e.name)
				}
				continue
			}
			if rec.Seq != before+1 || rec.Err == "" {
				t.Fatalf("%s failure, %s: flight records %d → %d (err %q), want exactly one failed record", st.name, e.name, before, rec.Seq, rec.Err)
			}
			if len(rec.Spans) != 1 || rec.Spans[0].Attrs["error"] != rec.Err {
				t.Errorf("%s failure, %s: root span does not carry the error: %v", st.name, e.name, rec.Spans)
			}
		}
	}
}
