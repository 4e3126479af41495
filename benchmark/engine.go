package main

import (
	"context"
	"runtime/metrics"
	"time"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/parser"
)

// path says how an in-process workload hands a batch to the engine.
type path int

const (
	// viaFacade calls csedb.DB.RunContext, as a csedb caller does. Every
	// timing run uses this path and nothing else.
	viaFacade path = iota
	// viaLayers makes the calls RunContext makes (parse, bind, memo build,
	// optimize, execute) from here, without spans. It is the untraced twin of
	// viaTraced: the two differ only by tracing, and viaFacade differs from
	// it only by what the facade adds on top of the layers.
	viaLayers
	// viaTraced is viaLayers inside spans.
	viaTraced
)

var paths = []path{viaFacade, viaLayers, viaTraced}

// batchOut is what one executed batch yields.
type batchOut struct {
	stmts  []*exec.StatementResult
	core   core.Stats
	exec   *exec.Stats
	groups int // memo groups built (layer paths only)
}

// tracer holds the state of one traced section.
type tracer struct {
	start time.Time
	log   spanLog
}

func (t *tracer) sinceUS(at time.Time) int64 { return at.Sub(t.start).Microseconds() }

// heapAllocs reads the process's cumulative allocated bytes without stopping
// the world. Only single-caller workloads attribute it to a layer.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// runBatch executes one SQL batch on db by the given path. On viaTraced the
// batch's span tree — the spans opened here plus the children core and exec
// emit under them — is adopted into tr.log beneath parent.
func runBatch(ctx context.Context, db *csedb.DB, p path, sql string, tr *tracer, parent, op int) (*batchOut, error) {
	if p == viaFacade {
		res, err := db.RunContext(ctx, sql)
		if err != nil {
			return nil, err
		}
		return &batchOut{stmts: res.Statements, core: res.Stats, exec: res.ExecStats}, nil
	}

	// A nil recorder hands out nil spans, and every span method is a no-op
	// on nil: viaLayers runs the same code as viaTraced with tracing off.
	var rec *obs.SpanRecorder
	var began time.Time
	traced := p == viaTraced
	if traced {
		began = time.Now()
		rec = obs.NewSpanRecorder()
	}
	root := rec.StartSpan("batch")
	// layer times one call into a layer: a child span and, when tracing, the
	// bytes allocated while it ran.
	layer := func(parent *obs.Span, name string, call func(s *obs.Span) error) error {
		s := parent.Child(name)
		var a0 uint64
		if traced {
			a0 = heapAllocs()
		}
		err := call(s)
		if traced {
			s.SetAttr("alloc_bytes", heapAllocs()-a0)
		}
		s.End()
		return err
	}

	out := &batchOut{}
	var stmts []parser.Statement
	var batch *logical.Batch
	var optimized *core.Output
	err := layer(root, "parse", func(*obs.Span) (err error) {
		stmts, err = parser.Parse(sql)
		return
	})
	if err == nil {
		err = layer(root, "bind", func(*obs.Span) (err error) {
			batch, err = logical.BuildBatch(stmts, db.Catalog())
			return
		})
	}
	if err == nil {
		err = layer(root, "optimize", func(optSpan *obs.Span) error {
			var m *memo.Memo
			if err := layer(optSpan, "memo", func(*obs.Span) (err error) {
				m, err = memo.Build(batch)
				return
			}); err != nil {
				return err
			}
			out.groups = len(m.Groups)
			var err error
			optimized, err = core.OptimizeObserved(m, db.Settings(), nil, optSpan)
			return err
		})
	}
	if err == nil {
		out.core = optimized.Stats
		err = layer(root, "execute", func(execSpan *obs.Span) (err error) {
			out.stmts, out.exec, err = exec.RunWithOptions(ctx, optimized.Result, batch.Metadata, db.Store(), exec.Options{
				Parallelism: db.ExecParallelism(),
				ChunkSize:   db.ExecChunkSize(),
				Cache:       db.ResultCache(),
				Span:        execSpan,
				NoColPlane:  !db.ColPlane(),
			})
			return
		})
	}
	root.End()
	if traced {
		rec.Finish()
		tr.log.adopt(parent, op, tr.sinceUS(began), rec.Tree())
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
