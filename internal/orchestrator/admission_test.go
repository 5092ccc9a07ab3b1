package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genio/internal/container"
)

// TestAdmissionVerdictVectorInRegistrationOrder pins the aggregate's
// shape: one verdict per controller in registration order, every failure
// reported, and the first-registered failing controller named by the
// error message.
func TestAdmissionVerdictVectorInRegistrationOrder(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("c%d", i)
		fail := i == 2 || i == 4
		c.RegisterAdmissionCtx(name, func(context.Context, WorkloadSpec, *container.Image) error {
			if fail {
				return fmt.Errorf("%s says no", name)
			}
			return nil
		})
	}
	_, err := c.DeployContext(context.Background(), "ops", spec("x", "t", "acme/analytics:2.0.1", IsolationSoft))
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if !strings.Contains(err.Error(), "by c2") {
		t.Fatalf("verdict should come from c2, got %v", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) || len(adm.Verdicts) != 6 {
		t.Fatalf("want a 6-entry verdict vector, got %#v", err)
	}
	for i, v := range adm.Verdicts {
		if want := fmt.Sprintf("c%d", i); v.Scanner != want || v.Passed != (i != 2 && i != 4) {
			t.Fatalf("verdict[%d] = %+v, want scanner %s", i, v, want)
		}
	}
}

// TestAdmissionCacheSkipsCleanRescan checks that a cacheable controller
// runs once per image digest, not once per deployment.
func TestAdmissionCacheSkipsCleanRescan(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	var runs atomic.Int64
	c.RegisterAdmissionCachedCtx("counter", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		return nil
	})
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		if _, err := c.DeployContext(context.Background(), "ops", spec(name, "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cacheable controller ran %d times for one image, want 1", got)
	}
	// A different image has a different digest and must be scanned.
	if _, err := c.DeployContext(context.Background(), "ops", spec("other", "acme", "acme/iot-gateway:1.4.2", IsolationSoft)); err != nil {
		t.Fatalf("deploy other image: %v", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("controller ran %d times across two images, want 2", got)
	}
}

// TestAdmissionCacheNeverCachesRejections checks a failing image is
// re-scanned (and re-rejected) on every attempt.
func TestAdmissionCacheNeverCachesRejections(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	var runs atomic.Int64
	c.RegisterAdmissionCachedCtx("reject-all", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		return errors.New("nope")
	})
	for i := 0; i < 2; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", spec(fmt.Sprintf("w%d", i), "acme", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrDenied) {
			t.Fatalf("attempt %d: err = %v, want ErrDenied", i, err)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("failing controller ran %d times, want 2 (rejections are never cached)", got)
	}
}

// TestAdmissionCacheDisabled checks the benchmark knob forces cold scans.
func TestAdmissionCacheDisabled(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	c.AdmissionCacheDisabled = true
	var runs atomic.Int64
	c.RegisterAdmissionCachedCtx("counter", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		return nil
	})
	for i := 0; i < 2; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", spec(fmt.Sprintf("w%d", i), "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("controller ran %d times with cache disabled, want 2", got)
	}
}

// TestPeerSharesAdmissionChain: a peer admits through its origin's chain
// — a controller registered on either gates both, a digest scanned on one
// is cached for the other, and the verdict is logged once, through the
// origin's mutation sink — while placement state and the verdict-cache
// switch stay per cluster.
func TestPeerSharesAdmissionChain(t *testing.T) {
	home, _ := testCluster(t, Settings{})
	peer := home.NewPeer("peer")
	peer.AddNode("peer-01", Resources{CPUMilli: 4000, MemoryMB: 8192})
	var homeVerdicts, peerVerdicts atomic.Int64
	home.SetMutationSink(func(m Mutation) {
		if m.Kind == MutVerdict {
			homeVerdicts.Add(1)
		}
	})
	peer.SetMutationSink(func(m Mutation) {
		if m.Kind == MutVerdict {
			peerVerdicts.Add(1)
		}
	})
	var runs atomic.Int64
	peer.RegisterAdmissionCachedCtx("counter", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		return nil
	})
	home.RegisterAdmissionCtx("no-miners", func(_ context.Context, s WorkloadSpec, _ *container.Image) error {
		if s.ImageRef == "freestuff/optimizer:latest" {
			return errors.New("miner")
		}
		return nil
	})

	for _, c := range []*Cluster{peer, home, peer} {
		name := fmt.Sprintf("w-%s-%d", c.Name, c.WorkloadCount())
		if _, err := c.DeployContext(context.Background(), "ops", spec(name, "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("counter ran %d times for one digest across two clusters, want 1", got)
	}
	if got, want := homeVerdicts.Load(), int64(1); got != want || peerVerdicts.Load() != 0 {
		t.Fatalf("verdicts logged: home %d, peer %d; want %d on home only", got, peerVerdicts.Load(), want)
	}
	if home.AdmissionCacheSize() != 1 || peer.AdmissionCacheSize() != 1 {
		t.Fatalf("cache sizes home %d, peer %d; want the one shared entry", home.AdmissionCacheSize(), peer.AdmissionCacheSize())
	}
	if _, err := peer.DeployContext(context.Background(), "ops", spec("m", "acme", "freestuff/optimizer:latest", IsolationSoft)); !errors.Is(err, ErrDenied) {
		t.Fatalf("peer deploy of a miner = %v, want the home-registered controller's ErrDenied", err)
	}
	if home.WorkloadCount() != 1 || peer.WorkloadCount() != 2 {
		t.Fatalf("workloads home %d, peer %d; want 1 and 2", home.WorkloadCount(), peer.WorkloadCount())
	}

	peer.AdmissionCacheDisabled = true
	if _, err := peer.DeployContext(context.Background(), "ops", spec("cold", "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatal(err)
	}
	if _, err := home.DeployContext(context.Background(), "ops", spec("warm", "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatal(err)
	}
	// Runs so far: analytics once, the miner once; then one cold run on
	// the peer while the home still reads the cache.
	if got := runs.Load(); got != 3 {
		t.Fatalf("counter ran %d times, want 3", got)
	}
}

// TestConcurrentDuplicateNameOneWinner races N deploys of the same
// workload name; exactly one may win.
func TestConcurrentDuplicateNameOneWinner(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	const racers = 16
	var wg sync.WaitGroup
	var wins, dups atomic.Int64
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.DeployContext(context.Background(), "ops", spec("contested", "acme", "acme/analytics:2.0.1", IsolationSoft))
			switch {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrDuplicateName):
				dups.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 || dups.Load() != racers-1 {
		t.Fatalf("wins=%d dups=%d, want 1/%d", wins.Load(), dups.Load(), racers-1)
	}
	admitted, rejected := c.Counters()
	if admitted != 1 || rejected != racers-1 {
		t.Fatalf("counters = %d/%d, want 1/%d", admitted, rejected, racers-1)
	}
}

// TestConcurrentQuotaNeverOversubscribed races more deploys than the
// tenant quota allows; the up-front reservation must make the admitted
// count exact.
func TestConcurrentQuotaNeverOversubscribed(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	c.SetQuota("acme", Resources{CPUMilli: 2500, MemoryMB: 2560}) // fits exactly 5 of spec()'s 500/512
	const racers = 12
	var wg sync.WaitGroup
	var wins, quota atomic.Int64
	for i := 0; i < racers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.DeployContext(context.Background(), "ops", spec(fmt.Sprintf("q%d", i), "acme", "acme/analytics:2.0.1", IsolationSoft))
			switch {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrQuotaExceeded):
				quota.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 5 || quota.Load() != racers-5 {
		t.Fatalf("wins=%d quota-rejections=%d, want 5/%d", wins.Load(), quota.Load(), racers-5)
	}
	if used := c.TenantUsage("acme"); used.CPUMilli != 2500 {
		t.Fatalf("tenant usage = %+v after settle, want 2500 CPUMilli", used)
	}
}

// TestConcurrentDeploysAcrossNodes floods a multi-node cluster from many
// goroutines and checks capacity accounting stays exact.
func TestConcurrentDeploysAcrossNodes(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("edge", reg, Settings{})
	const nodes, perNode = 4, 6
	for i := 0; i < nodes; i++ {
		c.AddNode(fmt.Sprintf("olt-%02d", i), Resources{CPUMilli: perNode * 500, MemoryMB: perNode * 512})
	}
	total := nodes * perNode
	var wg sync.WaitGroup
	errs := make([]error, total)
	for i := 0; i < total; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.DeployContext(context.Background(), "ops", spec(fmt.Sprintf("w%03d", i), fmt.Sprintf("t%d", i%3), "acme/analytics:2.0.1", IsolationSoft))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	if got := len(c.Workloads()); got != total {
		t.Fatalf("%d workloads registered, want %d", got, total)
	}
	for _, u := range c.Utilization() {
		if u.Used != (Resources{CPUMilli: perNode * 500, MemoryMB: perNode * 512}) {
			t.Fatalf("node %s used %+v, want full", u.Node, u.Used)
		}
	}
	// The cluster is exactly full: one more deploy must fail cleanly.
	if _, err := c.DeployContext(context.Background(), "ops", spec("overflow", "t0", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("overflow err = %v, want ErrNoCapacity", err)
	}
}

// TestAdmissionSingleflightCollapsesConcurrentScans pins the
// concurrent-identical collapse: two simultaneous deploys of the same
// image digest share ONE scanner run — the second waits on the first's
// verdict instead of racing it through the (not yet populated) cache.
func TestAdmissionSingleflightCollapsesConcurrentScans(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	var runs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.RegisterAdmissionCachedCtx("slow-scanner", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		once.Do(func() { close(entered) })
		<-release
		return nil
	})

	errs := make(chan error, 2)
	go func() {
		_, err := c.DeployContext(context.Background(), "ops", spec("first", "acme", "acme/analytics:2.0.1", IsolationSoft))
		errs <- err
	}()
	<-entered // the leader is inside the scanner
	go func() {
		_, err := c.DeployContext(context.Background(), "ops", spec("second", "acme", "acme/analytics:2.0.1", IsolationSoft))
		errs <- err
	}()
	// Give the follower time to reach the in-flight wait, then let the
	// leader's scan finish. (If the follower arrives after the verdict
	// commits it takes the cache-hit path instead — either way the
	// scanner must have run exactly once.)
	time.Sleep(20 * time.Millisecond)
	close(release)

	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent deploy %d: %v", i, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("scanner ran %d times for two concurrent deploys of one digest, want 1", got)
	}
}

// TestAdmissionSingleflightSharesRejection checks a follower adopts the
// leader's rejection: the image content is identical, so re-scanning it
// for the concurrent sibling would only repeat the verdict.
func TestAdmissionSingleflightSharesRejection(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	var runs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.RegisterAdmissionCachedCtx("slow-reject", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		once.Do(func() { close(entered) })
		<-release
		return errors.New("malware")
	})

	errs := make(chan error, 2)
	go func() {
		_, err := c.DeployContext(context.Background(), "ops", spec("first", "acme", "acme/analytics:2.0.1", IsolationSoft))
		errs <- err
	}()
	<-entered
	go func() {
		_, err := c.DeployContext(context.Background(), "ops", spec("second", "acme", "acme/analytics:2.0.1", IsolationSoft))
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)

	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrDenied) {
			t.Fatalf("concurrent deploy %d: err = %v, want ErrDenied", i, err)
		}
	}
	// Exactly one scan while the two deploys overlapped. A later retry
	// re-scans as usual — rejections are still never cached.
	if got := runs.Load(); got != 1 {
		t.Fatalf("scanner ran %d times for two concurrent deploys, want 1", got)
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("retry", "acme", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrDenied) {
		t.Fatalf("retry err = %v, want ErrDenied", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("scanner ran %d times after retry, want 2 (rejections are never cached)", got)
	}
}

// TestAdmissionLateArrivalAdoptsUncommittedVerdict closes the window
// between a leader's scan and its commit: the verdict is committed only
// after the leader's whole chain has run, and a deploy of the same digest
// arriving in between — here while a later controller holds the leader —
// adopts the published verdict instead of scanning again. If the
// leader's run is then cancelled it commits nothing, and the adopter
// commits the verdict itself.
func TestAdmissionLateArrivalAdoptsUncommittedVerdict(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	var runs, logged atomic.Int64
	c.SetMutationSink(func(m Mutation) {
		if m.Kind == MutVerdict {
			logged.Add(1)
		}
	})
	c.RegisterAdmissionCachedCtx("counter", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		return nil
	})
	held := make(chan struct{})
	c.RegisterAdmissionCtx("hold-first", func(ctx context.Context, s WorkloadSpec, _ *container.Image) error {
		if s.Name != "first" {
			return nil
		}
		close(held)
		<-ctx.Done()
		return ctx.Err()
	})

	ctx, cancel := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, err := c.DeployContext(ctx, "ops", spec("first", "acme", "acme/analytics:2.0.1", IsolationSoft))
		firstErr <- err
	}()
	<-held // the counter ran clean for "first"; nothing is committed yet
	if _, err := c.DeployContext(context.Background(), "ops", spec("second", "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatalf("second deploy: %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("counter ran %d times, want 1: the late arrival re-scanned", got)
	}
	cancel()
	if err := <-firstErr; !errors.Is(err, ErrCancelled) {
		t.Fatalf("first deploy err = %v, want ErrCancelled", err)
	}
	if got := c.AdmissionCacheSize(); got != 1 || logged.Load() != 1 {
		t.Fatalf("cache %d entries, %d verdicts logged; want the adopter's one of each", got, logged.Load())
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("third", "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil || runs.Load() != 1 {
		t.Fatalf("third deploy: err %v, counter ran %d times; want a cache hit", err, runs.Load())
	}
}

// TestAdmissionSingleflightAbandonedLeader checks a follower retakes
// leadership when the leader's deployment is cancelled mid-scan: the
// abandoned verdict is unusable, so the surviving deploy re-runs the
// scanner and still completes.
func TestAdmissionSingleflightAbandonedLeader(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	var runs atomic.Int64
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	c.RegisterAdmissionCtx("noop", func(context.Context, WorkloadSpec, *container.Image) error { return nil })
	c.RegisterAdmissionCachedCtx("slow-scanner", func(ctx context.Context, _ WorkloadSpec, _ *container.Image) error {
		n := runs.Add(1)
		entered <- struct{}{}
		if n == 1 {
			// Leader: block until its context is cancelled.
			<-ctx.Done()
			return ctx.Err()
		}
		<-release
		return nil
	})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.DeployContext(leaderCtx, "ops", spec("leader", "acme", "acme/analytics:2.0.1", IsolationSoft))
		leaderErr <- err
	}()
	<-entered // leader is inside the scanner

	followerErr := make(chan error, 1)
	go func() {
		_, err := c.DeployContext(context.Background(), "ops", spec("follower", "acme", "acme/analytics:2.0.1", IsolationSoft))
		followerErr <- err
	}()
	// Let the follower reach the in-flight wait, then kill the leader.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()

	var cerr *CancelledError
	if err := <-leaderErr; !errors.As(err, &cerr) {
		t.Fatalf("leader err = %v, want *CancelledError", err)
	}
	<-entered // follower retook leadership and entered the scanner
	close(release)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower deploy: %v", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("scanner ran %d times, want 2 (abandoned leader + retake)", got)
	}
}
