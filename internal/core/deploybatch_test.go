package core

// Tests for the batch worker loop: positional typed results, one
// terminal lifecycle event per spec, cancellation mid-batch, the
// closed-platform gate, the GOMAXPROCS in-flight bound and goroutine
// hygiene. Run with -race -cpu 1,2,4: the worker count follows the
// runtime.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"genio/internal/container"
	"genio/internal/events"
	"genio/internal/orchestrator"
)

// lifecycleTally records, in spine publish order, how many pipelines
// were between their pending and terminal events at once, and how many
// terminal events each workload got.
type lifecycleTally struct {
	mu          sync.Mutex
	inFlight    int
	maxInFlight int
	terminals   map[string]int
}

func tallyLifecycle(t *testing.T, p *Platform) *lifecycleTally {
	t.Helper()
	lt := &lifecycleTally{terminals: map[string]int{}}
	if _, err := p.Subscribe("batch-tally", []events.Topic{events.TopicDeployLifecycle},
		func(b []events.Event) {
			lt.mu.Lock()
			defer lt.mu.Unlock()
			for _, e := range b {
				ev := e.Payload.(LifecycleEvent)
				switch {
				case ev.State == StatePending:
					lt.inFlight++
					lt.maxInFlight = max(lt.maxInFlight, lt.inFlight)
				case ev.State.Terminal():
					lt.inFlight--
					lt.terminals[ev.Workload]++
				}
			}
		}); err != nil {
		t.Fatal(err)
	}
	return lt
}

// waitGoroutines polls until the goroutine count is back at (or below)
// the level recorded before the call under test.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after; the call under test leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeployBatchCancelMidBatch is the positional contract under every
// outcome at once: specs before the cancellation point end placed or
// rejected with their own typed error, the spec that cancels the batch
// and everything after it report *CancelledError, placed ones stay
// placed, and each spec gets exactly one terminal lifecycle event.
func TestDeployBatchCancelMidBatch(t *testing.T) {
	p := asyncPlatform(t)
	lt := tallyLifecycle(t, p)
	const n, victim = 12, 5
	specs := make([]orchestrator.WorkloadSpec, n)
	index := map[string]int{}
	for i := range specs {
		specs[i] = asyncSpec(fmt.Sprintf("b-%02d", i))
		index[specs[i].Name] = i
	}
	specs[2].ImageRef = "acme/unpublished:0.0.1" // rejected: pull fails
	specs[3].Tenant = "globex"                   // rejected: "ci" has no rights there

	// The victim cancels the batch only once every earlier spec is
	// terminal; a worker that ran ahead of it parks in the gate until
	// then. So "before / after the cancellation point" is decided by
	// index, not by scheduling, at any worker count.
	earlyDone := make(chan struct{})
	early := 0
	if _, err := p.Subscribe("early-terminals", []events.Topic{events.TopicDeployLifecycle},
		func(b []events.Event) {
			for _, e := range b {
				if ev := e.Payload.(LifecycleEvent); ev.State.Terminal() && index[ev.Workload] < victim {
					if early++; early == victim {
						close(earlyDone)
					}
				}
			}
		}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan struct{})
	p.Cluster.RegisterAdmissionCtx("test-gate", func(ctx context.Context, spec orchestrator.WorkloadSpec, _ *container.Image) error {
		switch i := index[spec.Name]; {
		case i < victim:
			return nil
		case i == victim:
			<-earlyDone
			cancel()
			close(cancelled)
		}
		<-cancelled
		return ctx.Err()
	})

	before := runtime.NumGoroutine()
	workloads, errs := p.DeployBatchContext(ctx, "ci", specs)
	waitGoroutines(t, before)

	if len(workloads) != n || len(errs) != n {
		t.Fatalf("results not positional: %d workloads, %d errs for %d specs", len(workloads), len(errs), n)
	}
	var (
		pull *orchestrator.ImagePullError
		auth *orchestrator.UnauthorizedError
	)
	for i := range specs {
		if (workloads[i] == nil) == (errs[i] == nil) {
			t.Fatalf("spec %d: workload=%v err=%v, want exactly one", i, workloads[i], errs[i])
		}
		_, held := p.Cluster.Workload(specs[i].Name)
		switch {
		case i == 2:
			if !errors.As(errs[i], &pull) {
				t.Fatalf("spec 2: err = %v, want *ImagePullError", errs[i])
			}
		case i == 3:
			if !errors.As(errs[i], &auth) {
				t.Fatalf("spec 3: err = %v, want *UnauthorizedError", errs[i])
			}
		case i < victim:
			if errs[i] != nil || workloads[i].Spec.Name != specs[i].Name || !held {
				t.Fatalf("spec %d: workload=%v err=%v held=%v, want placed under its own name", i, workloads[i], errs[i], held)
			}
		default:
			var c *orchestrator.CancelledError
			if !errors.As(errs[i], &c) || held {
				t.Fatalf("spec %d: err=%v held=%v, want *CancelledError and no placement", i, errs[i], held)
			}
		}
	}
	p.Flush()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, s := range specs {
		if got := lt.terminals[s.Name]; got != 1 {
			t.Fatalf("workload %s: %d terminal lifecycle events, want exactly 1", s.Name, got)
		}
	}
}

// TestDeployBatchBoundedByGOMAXPROCS: the batch never has more
// pipelines between pending and terminal than the runtime has Ps, and
// starts no goroutine that survives it.
func TestDeployBatchBoundedByGOMAXPROCS(t *testing.T) {
	p := asyncPlatform(t)
	p.Cluster.SetQuota("acme", orchestrator.Resources{})
	lt := tallyLifecycle(t, p)
	specs := make([]orchestrator.WorkloadSpec, 64)
	for i := range specs {
		specs[i] = asyncSpec(fmt.Sprintf("w-%02d", i))
		specs[i].Resources = orchestrator.Resources{CPUMilli: 1, MemoryMB: 1}
	}
	before := runtime.NumGoroutine()
	_, errs := p.DeployBatchContext(context.Background(), "ci", specs)
	waitGoroutines(t, before)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if limit := runtime.GOMAXPROCS(0); lt.maxInFlight < 1 || lt.maxInFlight > limit {
		t.Fatalf("peak pipelines in flight = %d, want 1..GOMAXPROCS (%d)", lt.maxInFlight, limit)
	}
	if lt.inFlight != 0 || len(lt.terminals) != len(specs) {
		t.Fatalf("after the batch: %d in flight, %d workloads terminal, want 0 and %d", lt.inFlight, len(lt.terminals), len(specs))
	}
}

// TestDeployBatchOnClosedPlatform: every element is a *ClosedError and
// the lifecycle topic sees nothing.
func TestDeployBatchOnClosedPlatform(t *testing.T) {
	p := asyncPlatform(t)
	lt := tallyLifecycle(t, p)
	p.Close()
	specs := []orchestrator.WorkloadSpec{asyncSpec("late-0"), asyncSpec("late-1"), asyncSpec("late-2")}
	workloads, errs := p.DeployBatchContext(context.Background(), "ci", specs)
	for i := range specs {
		var closed *ClosedError
		if workloads[i] != nil || !errors.As(errs[i], &closed) {
			t.Fatalf("spec %d: workload=%v err=%v, want *ClosedError", i, workloads[i], errs[i])
		}
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.maxInFlight != 0 || len(lt.terminals) != 0 {
		t.Fatalf("closed platform published lifecycle events: peak %d in flight, %d terminal", lt.maxInFlight, len(lt.terminals))
	}
	if ts := p.Metrics()[events.TopicDeployLifecycle]; ts.Published != 0 {
		t.Fatalf("lifecycle ledger counts %d published events on a closed platform, want 0", ts.Published)
	}
}
