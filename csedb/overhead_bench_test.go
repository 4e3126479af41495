package csedb_test

import (
	"testing"

	"repro/csedb"
	"repro/internal/bench"
)

// benchBatch measures end-to-end batch throughput with observability fully
// off vs fully on (span tracing + flight recorder). Compare the two with
// benchstat; the observability overhead budget is < 5%. The result cache is
// disabled so every iteration does the full materialization work.
func benchBatch(b *testing.B, span bool) {
	db := csedb.Open(csedb.Options{SpanTracing: span, CacheBudget: -1})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(bench.Table2SQL()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchObsOff(b *testing.B) { benchBatch(b, false) }
func BenchmarkBatchObsOn(b *testing.B)  { benchBatch(b, true) }
