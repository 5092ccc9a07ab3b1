package core

// Regression tests for Platform.Close/Flush idempotence: double-Close used
// to rely on caller discipline (a second concurrent Close could return
// while the first was still draining). Now every Close blocks until the
// bus is drained, and Close/Flush/RecordIncident interleave freely.

import (
	"fmt"
	"sync"
	"testing"
)

func TestCloseIdempotentSequential(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.RecordIncident(Incident{Source: "test", Detail: "before close"})
	p.Close()
	p.Close() // second Close must be a no-op, not a panic or deadlock
	if got := len(p.Incidents()); got != 1 {
		t.Fatalf("incidents after double close = %d, want 1", got)
	}
	// The platform stays usable: late incidents still join the ledger.
	p.RecordIncident(Incident{Source: "test", Detail: "after close"})
	if got := len(p.Incidents()); got != 2 {
		t.Fatalf("incidents after late record = %d, want 2", got)
	}
	p.Flush() // Flush after Close must not block
}

func TestCloseFlushRecordConcurrent(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		recorders = 8
		perG      = 50
		closers   = 4
		flushers  = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p.RecordIncident(Incident{Source: "stress", Detail: fmt.Sprintf("g%d-%d", g, i)})
			}
		}(g)
	}
	for g := 0; g < flushers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p.Flush()
			}
		}()
	}
	for g := 0; g < closers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
	// No incident may be lost, whichever side of the close it landed on.
	if got := len(p.Incidents()); got != recorders*perG {
		t.Fatalf("incidents = %d, want %d", got, recorders*perG)
	}
	if p.IncidentCounts()["stress"] != recorders*perG {
		t.Fatalf("counts = %v", p.IncidentCounts())
	}
}

// TestCloseBlocksUntilDrained checks that every concurrent Close waits for
// the queued backlog, not just the call that flips the closed flag.
func TestCloseBlocksUntilDrained(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p.RecordIncident(Incident{Source: "backlog", Detail: "queued"})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
			// After any Close returns, the full backlog must be visible.
			if got := len(p.Incidents()); got != 500 {
				t.Errorf("incidents visible after Close = %d, want 500", got)
			}
		}()
	}
	wg.Wait()
}
