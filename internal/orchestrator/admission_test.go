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

// TestVerdictCacheMissesOnTamperedImage republishes a vetted ref with
// injected content: the digest is recomputed on every deploy, never
// memoized on the Image, so the tampered manifest misses every cached
// clean verdict and each cacheable controller judges it afresh.
func TestVerdictCacheMissesOnTamperedImage(t *testing.T) {
	c, reg := testCluster(t, Settings{})
	var runs atomic.Int64
	c.RegisterAdmissionCachedCtx("counter", func(context.Context, WorkloadSpec, *container.Image) error {
		runs.Add(1)
		return nil
	})
	c.RegisterAdmissionCachedCtx("no-preload", func(_ context.Context, _ WorkloadSpec, img *container.Image) error {
		for _, e := range img.Config.Env {
			if strings.HasPrefix(e, "LD_PRELOAD=") {
				return errors.New("injected " + e)
			}
		}
		return nil
	})
	if _, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
		t.Fatal(err)
	}

	// Tamper with the very object the registry serves, then re-push it:
	// a digest cached on the Image would still name the clean content.
	img, err := reg.Pull("acme/analytics:2.0.1")
	if err != nil {
		t.Fatal(err)
	}
	img.Config.Env = append(img.Config.Env, "LD_PRELOAD=/tmp/inject.so")
	reg.Push(img, nil)

	_, err = c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationHard))
	var adm *AdmissionError
	if !errors.As(err, &adm) || !strings.Contains(err.Error(), "by no-preload") {
		t.Fatalf("tampered deploy = %v, want a no-preload rejection", err)
	}
	for _, v := range adm.Verdicts {
		if v.Cached {
			t.Fatalf("verdict %+v came from the cache entry of the clean digest", v)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("counter ran %d times, want 2 (the tampered image is scanned again)", got)
	}
}

// TestPeerSharesAdmissionChain: a peer admits through its origin's chain
// — a controller registered on either gates both, a digest scanned on one
// is cached for the other, and the verdict is logged once, through the
// origin's mutation sink — while placement state stays per cluster.
func TestPeerSharesAdmissionChain(t *testing.T) {
	home, _ := testCluster(t, Settings{})
	peer := home.NewPeer("peer")
	peer.AddNode("peer-01", Resources{CPUMilli: 4000, MemoryMB: 8192})
	var homeVerdicts, peerVerdicts atomic.Int64
	home.SetMutationSink(func(m Mutation) {
		if m.Kind == MutVerdict {
			homeVerdicts.Add(int64(len(m.Verdict.Controllers)))
		}
	})
	peer.SetMutationSink(func(m Mutation) {
		if m.Kind == MutVerdict {
			peerVerdicts.Add(int64(len(m.Verdict.Controllers)))
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
}

// TestColdAdmissionLogsOneVerdictRecord: a cold admission through three
// cacheable controllers commits one cache entry for the digest and logs
// one MutVerdict naming the digest and all three, sorted; the policy
// check is not cached and a warm admission logs nothing.
func TestColdAdmissionLogsOneVerdictRecord(t *testing.T) {
	c, reg := testCluster(t, Settings{})
	var mu sync.Mutex
	var logged []Mutation
	c.SetMutationSink(func(m Mutation) {
		if m.Kind == MutVerdict {
			mu.Lock()
			logged = append(logged, m)
			mu.Unlock()
		}
	})
	for _, name := range []string{"sast", "malware", "sca"} {
		c.RegisterAdmissionCachedCtx(name, func(context.Context, WorkloadSpec, *container.Image) error { return nil })
	}
	c.RegisterAdmissionCtx("policy", func(context.Context, WorkloadSpec, *container.Image) error { return nil })
	for _, name := range []string{"cold", "warm"} {
		if _, err := c.DeployContext(context.Background(), "ops", spec(name, "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
	}
	img, err := reg.Pull("acme/analytics:2.0.1")
	if err != nil {
		t.Fatal(err)
	}
	digest := img.Digest()
	if len(logged) != 1 || logged[0].Verdict.Digest != digest || strings.Join(logged[0].Verdict.Controllers, ",") != "malware,sast,sca" {
		t.Fatalf("verdict records %+v, want one for %s naming malware, sast, sca", logged, digest)
	}
	if got := c.AdmissionCacheSize(); got != 3 {
		t.Fatalf("cache holds %d verdicts, want 3", got)
	}
	want := []string{"malware\x00" + digest, "sast\x00" + digest, "sca\x00" + digest}
	if got := c.VerdictKeys(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("VerdictKeys = %q, want %q", got, want)
	}
}

// TestConcurrentVerdictCommitsMerge: commits of one digest racing from
// many goroutines, each clearing a different controller, all land in the
// digest's one entry, and every controller is reported added exactly once.
func TestConcurrentVerdictCommitsMerge(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	const n = 16
	var wg sync.WaitGroup
	var added atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			names := []string{fmt.Sprintf("c%02d", i), fmt.Sprintf("c%02d", (i+1)%n)}
			added.Add(int64(len(c.adm.commit("sha256:d", names))))
		}(i)
	}
	wg.Wait()
	if added.Load() != n || c.AdmissionCacheSize() != n || len(c.VerdictKeys()) != n {
		t.Fatalf("added %d, cache %d, keys %d; want %d of each", added.Load(), c.AdmissionCacheSize(), len(c.VerdictKeys()), n)
	}
}

// TestAdmissionSiblingCommitMidRunReadsCached: a verdict a sibling deploy commits
// while this run is still in an earlier scanner is skipped and reported
// as cached, as if the run had reached it on a warm cache.
func TestAdmissionSiblingCommitMidRunReadsCached(t *testing.T) {
	c, reg := testCluster(t, Settings{})
	img, err := reg.Pull("acme/analytics:2.0.1")
	if err != nil {
		t.Fatal(err)
	}
	digest := img.Digest()
	var lateRuns atomic.Int64
	c.RegisterAdmissionCachedCtx("early", func(context.Context, WorkloadSpec, *container.Image) error {
		c.adm.commit(digest, []string{"late"}) // the sibling's commit
		return nil
	})
	c.RegisterAdmissionCachedCtx("late", func(context.Context, WorkloadSpec, *container.Image) error {
		lateRuns.Add(1)
		return nil
	})
	c.RegisterAdmissionCtx("deny", func(context.Context, WorkloadSpec, *container.Image) error {
		return errors.New("denied")
	})
	var adm *AdmissionError
	if err := c.Admit(context.Background(), spec("x", "acme", "acme/analytics:2.0.1", IsolationSoft), img); !errors.As(err, &adm) {
		t.Fatalf("Admit = %v, want an *AdmissionError", err)
	}
	if lateRuns.Load() != 0 {
		t.Fatal("late scanned an image a sibling had already cleared")
	}
	if v := adm.Verdicts[1]; v.Scanner != "late" || !v.Passed || !v.Cached {
		t.Fatalf("late verdict = %+v, want passed and cached", v)
	}
	if v := adm.Verdicts[0]; v.Cached {
		t.Fatalf("early verdict = %+v, want freshly scanned", v)
	}
}

// TestImportStateRoundTripsClearedVerdicts:a state's per-digest
// verdicts import into the cache and export unchanged.
func TestImportStateRoundTripsClearedVerdicts(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	c.ImportState(ClusterState{Cleared: map[string][]string{"sha256:a": {"malware", "sast"}, "sha256:b": {"sca"}}})
	want := []string{"malware\x00sha256:a", "sast\x00sha256:a", "sca\x00sha256:b"}
	if got := c.VerdictKeys(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("VerdictKeys = %q, want %q", got, want)
	}
	if got := c.ExportState().Cleared; len(got) != 2 || strings.Join(got["sha256:a"], ",") != "malware,sast" {
		t.Fatalf("exported verdicts %v", got)
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
			logged.Add(int64(len(m.Verdict.Controllers)))
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
