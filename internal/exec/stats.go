package exec

import (
	"sync"
	"time"

	"repro/internal/opt"
)

// NodeStats holds per-operator actuals collected when Options.Analyze is set:
// output rows, cumulative wall time (children included, mirroring how
// Plan.Cost is cumulative), and the number of executions of the node.
type NodeStats struct {
	Rows  int
	Time  time.Duration
	Execs int

	// Wait is the time a spool scan spent blocked while another reader
	// materialized its spool. It is not part of the scan's Time; the Time of
	// the scan's ancestors, which is wall time, still includes it.
	Wait time.Duration

	// Par is the maximum intra-operator parallel degree this node achieved
	// (workers that actually processed its morsels, including the calling
	// goroutine). 0 when the node never ran a parallel morsel pass.
	Par int
}

// Stats reports what one batch execution did. It is a plain-data snapshot
// produced after the run completes — copy it freely. All per-spool maps are
// keyed by CSE id.
type Stats struct {
	// SpoolRows is the number of rows materialized into each spool's work
	// table; every CSE is computed exactly once per batch.
	SpoolRows map[int]int

	// SpoolTimes is the wall-clock time spent materializing each spool.
	SpoolTimes map[int]time.Duration

	// SpoolRuns counts how many times each spool's plan was actually
	// executed; the scheduler guarantees 1 per spool.
	SpoolRuns map[int]int

	// SpoolHits counts reads of each spool's work table by consumers
	// (including other CSE plans when stacking).
	SpoolHits map[int]int

	// SpoolCached marks spools served from the cross-batch result cache
	// instead of being materialized; such spools have no SpoolRuns entry.
	SpoolCached map[int]bool

	// StmtTimes is the wall-clock time of each statement's task. It includes
	// the spools the statement read first, and so materialized itself, and
	// any time it spent blocked on a spool another reader was materializing.
	StmtTimes []time.Duration

	// Workers is the worker-pool size the batch ran with: at most this many
	// statements run at once.
	Workers int

	// Morsels is the total number of row chunks dispatched to the intra-op
	// worker pool; ParallelOps counts operator executions split across it.
	// Both depend only on the plan, the data and the pool size, and are 0
	// when the pool has one worker. How many helpers an operator actually
	// got depends on what ran beside it; Analyze reports it as NodeStats.Par.
	Morsels     int
	ParallelOps int

	// ColSelections counts predicates compiled to selection-vector kernels
	// over columnar data; ColHashPasses counts column-at-a-time hash-key
	// extractions (hash join sides and aggregation group keys). Both are 0
	// when Options.NoColPlane forced the row-at-a-time path.
	ColSelections int
	ColHashPasses int

	// WallTime is the total batch execution time. BusyTime is the work time
	// of every goroutine the batch ran: Σ StmtTimes, minus the time readers
	// spent blocked on another reader's spool materialization, plus the time
	// intra-operator helper goroutines spent running morsels.
	WallTime time.Duration
	BusyTime time.Duration

	// Nodes holds per-operator actuals, populated only when the batch ran
	// with Options.Analyze.
	Nodes map[*opt.Plan]NodeStats
}

// CacheHits is the number of spools this batch served from the cross-batch
// result cache.
func (s *Stats) CacheHits() int { return len(s.SpoolCached) }

// Utilization is the fraction of available worker time spent doing work:
// BusyTime / (WallTime × Workers). A one-worker run is ~1. A run limited by
// one chain of work approaches 1/Workers unless its operators borrow
// intra-op helpers; helpers running beside a full pool of statements can
// lift it slightly above 1.
func (s *Stats) Utilization() float64 {
	if s.WallTime <= 0 || s.Workers <= 0 {
		return 0
	}
	return s.BusyTime.Seconds() / (s.WallTime.Seconds() * float64(s.Workers))
}

// collector accumulates execution statistics while a batch is running. It is
// internal so the mutex never escapes to callers (copying a finished Stats
// snapshot is safe and vet-clean).
type collector struct {
	mu          sync.Mutex
	analyze     bool
	spoolRows   map[int]int
	spoolTimes  map[int]time.Duration
	spoolRuns   map[int]int
	spoolHits   map[int]int
	spoolCached map[int]bool
	stmtTimes   []time.Duration
	blocked     time.Duration
	helpers     time.Duration
	workers     int
	morsels     int
	parallelOps int
	colSelects  int
	colHashes   int
	nodes       map[*opt.Plan]*NodeStats
}

func newCollector(nStatements, workers int, analyze bool) *collector {
	c := &collector{
		analyze:     analyze,
		spoolRows:   make(map[int]int),
		spoolTimes:  make(map[int]time.Duration),
		spoolRuns:   make(map[int]int),
		spoolHits:   make(map[int]int),
		spoolCached: make(map[int]bool),
		stmtTimes:   make([]time.Duration, nStatements),
		workers:     workers,
	}
	if analyze {
		c.nodes = make(map[*opt.Plan]*NodeStats)
	}
	return c
}

func (s *collector) recordSpool(id, rows int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spoolRows[id] = rows
	s.spoolTimes[id] = d
	s.spoolRuns[id]++
}

// recordSpoolCached notes a spool served from the cross-batch result cache:
// the rows are available (SpoolRows) but the plan was never run (no
// SpoolRuns entry); d is the lookup time.
func (s *collector) recordSpoolCached(id, rows int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spoolRows[id] = rows
	s.spoolTimes[id] = d
	s.spoolCached[id] = true
}

func (s *collector) recordSpoolHit(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spoolHits[id]++
}

// recordColSelect counts one predicate compiled to selection kernels.
func (s *collector) recordColSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.colSelects++
}

// recordColHash counts one column-at-a-time hash-key extraction pass.
func (s *collector) recordColHash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.colHashes++
}

func (s *collector) recordStmt(i int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stmtTimes[i] = d
}

// recordBlocked notes time the spool scan p spent blocked on a spool that
// another reader was materializing. Under Analyze it moves that time from
// the scan's Time, to which recordNode adds the scan's whole wall time once
// it returns, to its Wait.
func (s *collector) recordBlocked(p *opt.Plan, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocked += d
	if s.nodes != nil {
		ns := s.node(p)
		ns.Time -= d
		ns.Wait += d
	}
}

// recordHelper notes time one intra-op helper goroutine spent running
// morsels.
func (s *collector) recordHelper(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.helpers += d
}

// recordMorsels notes one intra-op parallel pass of a plan node: how many
// morsels it dispatched and the worker degree it achieved.
func (s *collector) recordMorsels(p *opt.Plan, morsels, degree int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.morsels += morsels
	s.parallelOps++
	if s.nodes != nil {
		ns := s.node(p)
		if degree > ns.Par {
			ns.Par = degree
		}
	}
}

// recordNode accumulates one execution of a plan node (Analyze mode only).
func (s *collector) recordNode(p *opt.Plan, rows int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.node(p)
	ns.Rows += rows
	ns.Time += d
	ns.Execs++
}

// node returns p's actuals, creating them on first use. s.mu must be held
// and Analyze on.
func (s *collector) node(p *opt.Plan) *NodeStats {
	ns, ok := s.nodes[p]
	if !ok {
		ns = &NodeStats{}
		s.nodes[p] = ns
	}
	return ns
}

// snapshot freezes the collector into a plain Stats value. Spools are
// materialized inside the statement that read them first, so their time is
// already part of stmtTimes and is not added to BusyTime again.
func (s *collector) snapshot(wall time.Duration) *Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &Stats{
		SpoolRows:     s.spoolRows,
		SpoolTimes:    s.spoolTimes,
		SpoolRuns:     s.spoolRuns,
		SpoolHits:     s.spoolHits,
		SpoolCached:   s.spoolCached,
		StmtTimes:     s.stmtTimes,
		Workers:       s.workers,
		Morsels:       s.morsels,
		ParallelOps:   s.parallelOps,
		ColSelections: s.colSelects,
		ColHashPasses: s.colHashes,
		WallTime:      wall,
		BusyTime:      s.helpers - s.blocked,
	}
	for _, d := range s.stmtTimes {
		out.BusyTime += d
	}
	if s.nodes != nil {
		out.Nodes = make(map[*opt.Plan]NodeStats, len(s.nodes))
		for p, ns := range s.nodes {
			out.Nodes[p] = *ns
		}
	}
	return out
}
