package core

// Tests for the v2 asynchronous deploy future: lifecycle ordering, the
// exactly-one-terminal-event guarantee, cancellation mid-scan (no placed
// workload, no leaked goroutines, no warmed verdict-cache slot), deadline expiry, Watch streaming, and the closed-platform gate.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genio/internal/container"
	"genio/internal/events"
	"genio/internal/orchestrator"
)

// asyncPlatform builds a secure platform with one node, a signed clean
// image, and deploy rights for "ci" on tenant acme.
func asyncPlatform(t *testing.T) *Platform {
	t.Helper()
	p := securePlatform(t)
	t.Cleanup(p.Close)
	addNode(t, p, "olt-01")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "ci", "acme")
	return p
}

func asyncSpec(name string) orchestrator.WorkloadSpec {
	return orchestrator.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
	}
}

// armGate registers a spec-gated admission controller that holds the
// named deployment open until its context dies, and returns a channel
// signalled when the gate is reached.
func armGate(p *Platform, workload string) chan struct{} {
	reached := make(chan struct{})
	p.Cluster.RegisterAdmissionCtx("test-gate", func(ctx context.Context, spec orchestrator.WorkloadSpec, _ *container.Image) error {
		if spec.Name != workload {
			return nil
		}
		close(reached)
		<-ctx.Done()
		return ctx.Err()
	})
	return reached
}

// watchStates opens a lifecycle watch on one workload before it is
// deployed and returns a function collecting its states up to the
// terminal one.
func watchStates(t *testing.T, p *Platform, workload string) func() []DeployState {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	ch, err := p.Watch(ctx, WatchSelector{Workload: workload})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	return func() []DeployState {
		defer cancel()
		var states []DeployState
		for ev := range ch {
			states = append(states, ev.State)
			if ev.State.Terminal() {
				break
			}
		}
		return states
	}
}

func TestDeployAsyncLifecycleToRunning(t *testing.T) {
	p := asyncPlatform(t)
	collect := watchStates(t, p, "w1")
	d, err := p.DeployAsync(context.Background(), "ci", asyncSpec("w1"))
	if err != nil {
		t.Fatalf("DeployAsync: %v", err)
	}
	w, err := d.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if w.Node != "olt-01" {
		t.Fatalf("placed on %q", w.Node)
	}
	if d.State() != StateRunning {
		t.Fatalf("state = %v, want running", d.State())
	}
	states := collect()
	want := []DeployState{StatePending, StateScanning, StatePlacing, StateRunning}
	if len(states) != len(want) {
		t.Fatalf("transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (full: %v)", i, states[i], want[i], states)
		}
	}
}

// TestDeployAsyncCancelMidScan is the leak-checked regression test: a
// cancelled DeployAsync whose admission chain is held open must (a)
// never place the workload, (b) leave zero goroutines behind, (c) release its clean-verdict cache slot — the cache holds
// exactly what it held before the deploy — and (d) emit exactly one
// terminal lifecycle event.
func TestDeployAsyncCancelMidScan(t *testing.T) {
	p := asyncPlatform(t)

	// Warm the scanner cache with a successful deploy so the cancelled
	// run's "no new cache entries" assertion is meaningful.
	if _, err := p.DeployContext(context.Background(), "ci", asyncSpec("warm")); err != nil {
		t.Fatalf("warm deploy: %v", err)
	}
	cacheBefore := p.Cluster.AdmissionCacheSize()

	var terminals atomic.Int64
	if _, err := p.Subscribe("terminal-count", []events.Topic{events.TopicDeployLifecycle},
		func(b []events.Event) {
			for _, e := range b {
				if le, ok := e.Payload.(LifecycleEvent); ok && le.Workload == "victim" && le.State.Terminal() {
					terminals.Add(1)
				}
			}
		}); err != nil {
		t.Fatal(err)
	}

	// The cancelled run deploys an image with a fresh digest, so every
	// scanner actually runs (and could, if buggy, commit a verdict).
	fresh := container.AnalyticsImage()
	fresh.Tag = "2.0.2"
	pushSigned(t, p, fresh)
	victim := asyncSpec("victim")
	victim.ImageRef = fresh.Ref()
	reached := armGate(p, "victim")
	before := runtime.NumGoroutine()

	d, err := p.DeployAsync(context.Background(), "ci", victim)
	if err != nil {
		t.Fatalf("DeployAsync: %v", err)
	}
	<-reached // the gate holds the admission chain open
	d.Cancel()
	_, derr := d.Result()

	var cancelled *orchestrator.CancelledError
	if !errors.As(derr, &cancelled) {
		t.Fatalf("Result err = %v, want *CancelledError", derr)
	}
	if !errors.Is(derr, orchestrator.ErrCancelled) || !errors.Is(derr, context.Canceled) {
		t.Fatalf("err %v must match ErrCancelled and context.Canceled", derr)
	}
	if errors.Is(derr, orchestrator.ErrRejected) {
		t.Fatalf("cancellation must not match ErrRejected")
	}
	if d.State() != StateCancelled {
		t.Fatalf("state = %v, want cancelled", d.State())
	}
	if _, placed := p.Cluster.Workload("victim"); placed {
		t.Fatal("cancelled deployment was placed")
	}
	if got := p.Cluster.AdmissionCacheSize(); got != cacheBefore {
		t.Fatalf("verdict cache grew from %d to %d during a cancelled deploy", cacheBefore, got)
	}
	p.Flush()
	if got := terminals.Load(); got != 1 {
		t.Fatalf("terminal lifecycle events = %d, want exactly 1", got)
	}

	// The deploy's goroutine must exit.
	waitGoroutines(t, before)
}

func TestDeployAsyncDeadlineExceeded(t *testing.T) {
	p := asyncPlatform(t)
	reached := armGate(p, "late")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	d, err := p.DeployAsync(ctx, "ci", asyncSpec("late"))
	if err != nil {
		t.Fatalf("DeployAsync: %v", err)
	}
	<-reached
	_, derr := d.Result()
	if !errors.Is(derr, orchestrator.ErrCancelled) || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping DeadlineExceeded", derr)
	}
	if _, placed := p.Cluster.Workload("late"); placed {
		t.Fatal("deadline-exceeded deployment was placed")
	}
}

// TestDeployAsyncCancelAfterTerminalIsNoop: cancelling a completed
// future changes nothing and emits no second terminal event.
func TestDeployAsyncCancelAfterTerminalIsNoop(t *testing.T) {
	p := asyncPlatform(t)
	var terminals atomic.Int64
	if _, err := p.Subscribe("terminal-count", []events.Topic{events.TopicDeployLifecycle},
		func(b []events.Event) {
			for _, e := range b {
				if le, ok := e.Payload.(LifecycleEvent); ok && le.State.Terminal() {
					terminals.Add(1)
				}
			}
		}); err != nil {
		t.Fatal(err)
	}
	d, err := p.DeployAsync(context.Background(), "ci", asyncSpec("done"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Result(); err != nil {
		t.Fatalf("Result: %v", err)
	}
	d.Cancel()
	if d.State() != StateRunning {
		t.Fatalf("state after late cancel = %v, want running", d.State())
	}
	if _, placed := p.Cluster.Workload("done"); !placed {
		t.Fatal("workload vanished after late cancel")
	}
	p.Flush()
	if got := terminals.Load(); got != 1 {
		t.Fatalf("terminal events = %d, want 1", got)
	}
}

func TestWatchStreamsLifecycle(t *testing.T) {
	p := asyncPlatform(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := p.Watch(ctx, WatchSelector{Tenant: "acme", TerminalOnly: true})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	const n = 4
	specs := make([]orchestrator.WorkloadSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, asyncSpec(fmt.Sprintf("watched-%d", i)))
	}
	go p.DeployBatchContext(context.Background(), "ci", specs)
	seen := map[string]DeployState{}
	for i := 0; i < n; i++ {
		select {
		case ev := <-ch:
			if !ev.State.Terminal() {
				t.Fatalf("terminal-only watch delivered %v", ev.State)
			}
			seen[ev.Workload] = ev.State
		case <-time.After(5 * time.Second):
			t.Fatalf("watch delivered %d/%d terminal events", i, n)
		}
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("watched-%d", i)
		if seen[name] != StateRunning {
			t.Fatalf("workload %s terminal state = %v, want running", name, seen[name])
		}
	}
	cancel()
	if _, open := <-ch; open {
		// Drain anything in flight; the channel must close.
		for range ch {
		}
	}
}

// TestWatchClosesWhenPlatformCloses: a watch on a never-cancelled context
// ends when the platform does — Close or Crash — after delivering the
// terminal events published before it, so `for ev := range ch` returns.
func TestWatchClosesWhenPlatformCloses(t *testing.T) {
	for name, shut := range map[string]func(*Platform){
		"close": (*Platform).Close,
		"crash": (*Platform).Crash,
	} {
		t.Run(name, func(t *testing.T) {
			p := asyncPlatform(t)
			ch, err := p.Watch(context.Background(), WatchSelector{TerminalOnly: true})
			if err != nil {
				t.Fatalf("Watch: %v", err)
			}
			const n = 3
			specs := make([]orchestrator.WorkloadSpec, 0, n)
			for i := 0; i < n; i++ {
				specs = append(specs, asyncSpec(fmt.Sprintf("final-%d", i)))
			}
			if _, errs := p.DeployBatchContext(context.Background(), "ci", specs); errors.Join(errs...) != nil {
				t.Fatal(errors.Join(errs...))
			}
			// Nothing has been received yet: the terminal events sit in the
			// watch's queue (or the spine's) when the platform goes away.
			shut(p)
			got := 0
			deadline := time.After(5 * time.Second)
			for open := true; open; {
				select {
				case _, open = <-ch:
					if open {
						got++
					}
				case <-deadline:
					t.Fatalf("watch channel still open 5s after %s (%d events received)", name, got)
				}
			}
			if got != n {
				t.Fatalf("watch delivered %d terminal events before closing, want %d", got, n)
			}
		})
	}
}

// TestWatchStalledConsumerKeepsOrder: a watcher that is not receiving
// must not stall Publish (the queue behind the channel is unbounded),
// and when it does receive it sees every matching event in publish
// order.
func TestWatchStalledConsumerKeepsOrder(t *testing.T) {
	p := asyncPlatform(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	single, err := p.Watch(ctx, WatchSelector{Tenant: "acme"})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	const n = 5000
	published := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			// Every third event belongs to another tenant: filtered out.
			ev := LifecycleEvent{Workload: "w", Tenant: "acme", State: StateScanning, AtMs: int64(i + 1)}
			if i%3 == 2 {
				ev.Tenant = "globex"
			}
			if err := p.PublishEvent(events.Event{Topic: events.TopicDeployLifecycle, Key: "w", Payload: ev}); err != nil {
				published <- err
				return
			}
		}
		p.Flush()
		published <- nil
	}()
	select {
	case err := <-published:
		if err != nil {
			t.Fatalf("publish: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Publish stalled behind watchers that were not receiving")
	}
	want := func(k int) int64 { return int64(k + k/2 + 1) } // k-th acme event
	const matching = n - n/3
	for k := 0; k < matching; k++ {
		if ev := <-single; ev.AtMs != want(k) {
			t.Fatalf("Watch event %d carries seq %d, want %d", k, ev.AtMs, want(k))
		}
	}
	cancel()
	for range single {
	}
}

func TestDeployAsyncOnClosedPlatform(t *testing.T) {
	p := asyncPlatform(t)
	p.Close()
	_, err := p.DeployAsync(context.Background(), "ci", asyncSpec("after-close"))
	var closed *ClosedError
	if !errors.As(err, &closed) {
		t.Fatalf("err = %v, want *ClosedError", err)
	}
	if !errors.Is(err, events.ErrClosed) {
		t.Fatalf("ClosedError must match events.ErrClosed, got %v", err)
	}
	if _, err := p.DeployContext(context.Background(), "ci", asyncSpec("after-close-sync")); !errors.Is(err, events.ErrClosed) {
		t.Fatalf("sync Deploy after close = %v, want ErrClosed", err)
	}
	if _, err := p.Watch(context.Background(), WatchSelector{}); !errors.Is(err, events.ErrClosed) {
		t.Fatalf("Watch after close = %v, want ErrClosed", err)
	}
}

// TestLifecycleElidedWithoutSubscribers: with no deploy.lifecycle
// subscriber, the topic's ledger stays at zero (observer-dependent
// telemetry), while the future itself still completes.
func TestLifecycleElidedWithoutSubscribers(t *testing.T) {
	p := asyncPlatform(t)
	d, err := p.DeployAsync(context.Background(), "ci", asyncSpec("quiet"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Result(); err != nil {
		t.Fatalf("Result: %v", err)
	}
	if got := d.Spec().Name; got != "quiet" {
		t.Fatalf("Spec().Name = %q", got)
	}
	select {
	case <-d.Done():
	default:
		t.Fatal("Done() not closed after Result returned")
	}
	p.Flush()
	if ts := p.Metrics()[events.TopicDeployLifecycle]; ts.Published != 0 {
		t.Fatalf("unwatched lifecycle published %d events, want 0 (elided)", ts.Published)
	}
}

// TestPublishEventContext covers the platform-level context publish:
// non-incident topics ride PublishContext, incident payloads keep the
// never-lost record path.
func TestPublishEventContext(t *testing.T) {
	p := securePlatform(t)
	t.Cleanup(p.Close)
	if err := p.PublishEventContext(context.Background(), events.Event{
		Topic: events.TopicMetric, Key: "k", Payload: events.Metric{Name: "m", Value: 1},
	}); err != nil {
		t.Fatalf("PublishEventContext metric: %v", err)
	}
	if err := p.PublishEventContext(context.Background(), events.Event{
		Topic: events.TopicIncident, Payload: Incident{Source: "ext", Detail: "d"},
	}); err != nil {
		t.Fatalf("PublishEventContext incident: %v", err)
	}
	if got := p.IncidentCounts()["ext"]; got != 1 {
		t.Fatalf("incident not recorded via context publish: %d", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.PublishEventContext(ctx, events.Event{Topic: events.TopicMetric, Key: "k"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PublishEventContext = %v, want context.Canceled", err)
	}
}

// TestDeployAsyncRunningEventRacesFailover pins the review fix for the
// lifecycle/failover data race: the running event must read the node
// from the commit-time copy of the workload, because a concurrent
// FailNode rewrites the live *Workload in place (*w = *moved) under the
// cluster lock the moment the commit releases it. Under -race this test
// fails if the deployment goroutine reads the live struct instead.
func TestDeployAsyncRunningEventRacesFailover(t *testing.T) {
	p := asyncPlatform(t)
	addNode(t, p, "olt-02")

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := "olt-01"
			if i%2 == 1 {
				name = "olt-02"
			}
			if _, err := p.Cluster.FailNode(name); err == nil {
				p.Cluster.AddNode(name, orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384})
			}
		}
	}()

	for i := 0; i < 40; i++ {
		d, err := p.DeployAsync(context.Background(), "ci", asyncSpec(fmt.Sprintf("racer-%d", i)))
		if err != nil {
			t.Fatalf("DeployAsync: %v", err)
		}
		// Quota rejections and no-capacity windows during churn are fine;
		// the test only requires the success path's node read be safe.
		if w, err := d.Result(); err == nil && w == nil {
			t.Fatal("nil workload with nil error")
		}
	}
	close(stop)
	churn.Wait()
}
