package exec

import (
	"testing"
	"time"

	"repro/internal/opt"
)

// TestAnalyzeSpoolWait: a spool scan that blocks while another reader
// materializes its spool reports the blocked time as its Wait, and only the
// rest of its wall time as its Time.
func TestAnalyzeSpoolWait(t *testing.T) {
	c, lscan, _, _, _ := orderedFixture(t)
	c.stats = newCollector(1, 1, true)
	e := &spoolEntry{id: 0, plan: lscan}
	c.spools[0] = e

	const hold = 50 * time.Millisecond
	materializing := make(chan struct{})
	go e.once.Do(func() {
		close(materializing)
		time.Sleep(hold)
		e.materialize(c)
	})
	<-materializing

	scan := &opt.Plan{Op: opt.PSpoolScan, SpoolID: 0, Cols: lscan.Cols}
	rows, err := c.execSource(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("spool scan returned %d rows, want 5", len(rows))
	}
	ns := c.stats.snapshot(0).Nodes[scan]
	if ns.Wait < hold/2 {
		t.Errorf("Wait = %s, want at least %s: the reader blocked on the other reader's materialization", ns.Wait, hold/2)
	}
	if ns.Time >= hold/2 {
		t.Errorf("Time = %s includes the %s wait", ns.Time, ns.Wait)
	}
}
