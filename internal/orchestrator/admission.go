package orchestrator

// Admission chain: the M13/M14/M16 scanners registered on the cluster run
// back-to-back, in registration order, for every deployment. A check
// returns its verdict and does nothing else — the caller derives incidents
// from the final verdict — so a run that is cancelled, or whose verdict a
// concurrent deploy shares, has no side effect to lose or duplicate. Every
// controller runs even after one has failed: the aggregate is a typed
// *AdmissionError carrying every controller's verdict, the first-registered
// failure named by its message, so callers can render the full table.
//
// Controllers whose verdict depends only on the image content (the
// scanners; not spec-dependent policy checks) can be registered cacheable:
// a clean verdict is remembered per image digest, so re-deploying an
// already-vetted image across many nodes or tenants skips the scan cost.
// Rejections are never cached — a failing image is re-scanned (and
// re-reported) on every attempt.
//
// Cancellation: the deployment context is checked before each controller
// and handed to it. Once it is done no further controller starts, the
// running one is expected to return promptly (the platform scanners poll
// the context between files), the whole run reports a *CancelledError,
// and — crucially — no clean verdict observed during a cancelled run is
// committed to the cache: a cancelled deployment leaves the cache exactly
// as it found it.
//
// The chain, the cache and the in-flight scan table are one value a
// cluster points to. NewCluster builds a fresh one; NewPeer shares it,
// so every member of a federated platform gates on the same controllers
// and scans a digest once, whichever member the deploy lands on.

import (
	"context"
	"sync"

	"genio/internal/container"
)

// admissionChain is the state every cluster sharing it admits through.
type admissionChain struct {
	// home is the cluster that built the chain: each fresh clean verdict
	// is logged through its mutation sink, whichever sharing cluster's
	// deploy ran the scan.
	home *Cluster

	mu     sync.RWMutex
	checks []namedAdmission
	cache  sync.Map // "controller\x00imageDigest" -> struct{} (clean verdicts only)
	// flight collapses concurrent identical cacheable scans: the first
	// deploy of a digest leads the scan, simultaneous deploys of the same
	// digest wait on its verdict instead of re-running the scanner (see
	// runShared).
	flightMu sync.Mutex
	flight   map[string]*admFlightCall
}

type namedAdmission struct {
	name string
	fn   AdmissionCheck
	// cacheable marks controllers whose verdict depends only on the image
	// content, letting clean verdicts be cached by digest.
	cacheable bool
}

// register appends one controller to the chain.
func (a *admissionChain) register(n namedAdmission) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks = append(a.checks, n)
}

// snapshot returns the controllers in registration order.
func (a *admissionChain) snapshot() []namedAdmission {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]namedAdmission(nil), a.checks...)
}

// AdmissionCheck is the admission controller contract: it inspects a
// deployment before scheduling and returns an error to reject it, with no
// side effect — the chain may share one run's verdict between concurrent
// deploys of an image, and discards a cancelled run's. Controllers must
// honour ctx — return promptly once it is done — because a cancelled
// deployment waits for its running controller.
type AdmissionCheck func(ctx context.Context, spec WorkloadSpec, img *container.Image) error

// RegisterAdmissionCtx appends a named admission controller; controllers
// run for every deployment and the first error in registration order is
// the one the rejection names. The controller gates every cluster that
// shares this one's chain (see NewPeer).
func (c *Cluster) RegisterAdmissionCtx(name string, fn AdmissionCheck) {
	c.adm.register(namedAdmission{name: name, fn: fn})
}

// RegisterAdmissionCachedCtx is RegisterAdmissionCtx for controllers whose
// verdict depends only on the image content: clean verdicts are cached by
// image digest and the controller is skipped on re-deployments of the same
// image. Controllers that inspect the spec (tenant, isolation, resources)
// must use RegisterAdmissionCtx instead.
func (c *Cluster) RegisterAdmissionCachedCtx(name string, fn AdmissionCheck) {
	c.adm.register(namedAdmission{name: name, fn: fn, cacheable: true})
}

// AdmissionCacheSize reports how many clean-verdict cache entries are
// held — in the chain's one cache, so every cluster sharing it reports
// the same number. The leak-regression tests use it to prove cancelled
// deployments commit nothing.
func (c *Cluster) AdmissionCacheSize() int {
	n := 0
	c.adm.cache.Range(func(any, any) bool { n++; return true })
	return n
}

// Admit runs the admission chain for spec and img without reserving or
// scheduling anything: far-edge workloads, placed on ONUs rather than
// cluster nodes, pass the same controllers and verdict cache as a deploy.
func (c *Cluster) Admit(ctx context.Context, spec WorkloadSpec, img *container.Image) error {
	return c.runAdmission(ctx, spec, img, c.deployDigest(img))
}

// runAdmission runs the registered admission chain in registration order
// and aggregates the verdict. A done context aborts the run with a
// *CancelledError and commits nothing to the verdict cache.
//
// digest is the deploy call's single Image.Digest computation (see
// Cluster.deployDigest) — shared with the warm-slot claim so one deploy
// never hashes the image twice. It keys the clean-verdict cache; empty
// (or with the cache administratively disabled) every cacheable
// controller runs cold.
func (c *Cluster) runAdmission(ctx context.Context, spec WorkloadSpec, img *container.Image, digest string) error {
	adm := c.adm
	chain := adm.snapshot()

	// The warm pool may have computed a digest the verdict cache is not
	// allowed to use (benchmarks measuring the cold scanner path).
	if c.AdmissionCacheDisabled {
		digest = ""
	}

	verdicts := make([]ScannerVerdict, len(chain))
	var clean []string // cache keys of this run's fresh clean verdicts
	var led []string   // keys of the in-flight scans this run led
	// A led scan's verdict stays adoptable until this run has committed
	// it or discarded it, so no deploy arriving in between scans again.
	defer func() { adm.land(led) }()
	rejected := false
	for i, a := range chain {
		verdicts[i] = ScannerVerdict{Scanner: a.name, Passed: true}
		key := ""
		if a.cacheable && digest != "" {
			key = a.name + "\x00" + digest
			if _, ok := adm.cache.Load(key); ok {
				verdicts[i].Cached = true
				continue
			}
		}
		if ctx.Err() != nil {
			break // no further controller starts; reported below
		}
		var err error
		if key != "" {
			// Cacheable scan: collapse concurrent identical runs.
			var leader bool
			if leader, err = adm.runShared(ctx, key, a, spec, img); leader {
				led = append(led, key)
			}
		} else {
			err = a.fn(ctx, spec, img)
		}
		switch {
		case err != nil:
			verdicts[i].Passed = false
			verdicts[i].Detail = err.Error()
			rejected = true
		case key != "":
			clean = append(clean, key)
		}
	}

	// Cancellation trumps any partial verdict, and nothing from a
	// cancelled run may warm the cache — the deployment's cache slot is
	// released wholesale.
	if err := ctxErr(ctx, spec.Name, "admission"); err != nil {
		return err
	}
	for _, key := range clean {
		// LoadOrStore: a sibling deploy sharing this scan's verdict may
		// have committed first; only the first commit records the
		// mutation, through the chain's home cluster, keeping the durable
		// log complete and free of duplicates.
		if _, loaded := adm.cache.LoadOrStore(key, struct{}{}); !loaded {
			adm.home.mutate(Mutation{Kind: MutVerdict, Key: key})
		}
	}
	if rejected {
		return &AdmissionError{Workload: spec.Name, Tenant: spec.Tenant, Verdicts: verdicts}
	}
	return nil
}

// admFlightCall is one in-flight cacheable scan: the leader runs the
// controller and publishes its verdict; followers for the same
// (controller, digest) key wait on done instead of re-scanning. A
// verdict the leader published stays in the flight table until the
// leader's run has committed it to the cache or discarded it (see land),
// so a deploy arriving after the scan but before the commit adopts it.
type admFlightCall struct {
	done chan struct{}
	// err is the leader's verdict — valid only when !abandoned. Sharing
	// a rejection is sound for cacheable controllers: their verdict
	// depends only on the image content, which is identical for every
	// waiter keyed by the same digest.
	err error
	// abandoned marks a run whose context died mid-scan: the verdict is
	// unusable (and, like any cancelled run, commits nothing), so a
	// follower retakes leadership instead of adopting it.
	abandoned bool
}

// runShared runs one cacheable controller with concurrent-identical
// collapse: the first deploy of a digest leads the scan, simultaneous
// deploys of the same digest wait on the leader's verdict. A follower
// whose own context dies stops waiting (its deployment reports the
// usual *CancelledError via the post-chain context check); a leader
// whose context dies publishes an abandoned call, and one waiting
// follower retakes leadership so the scan still completes. leader
// reports that this call led a scan whose verdict it published: the
// caller must land the key once its run has committed or discarded it.
func (adm *admissionChain) runShared(ctx context.Context, key string, a namedAdmission, spec WorkloadSpec, img *container.Image) (leader bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		adm.flightMu.Lock()
		if call, ok := adm.flight[key]; ok {
			adm.flightMu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return false, ctx.Err()
			}
			if !call.abandoned {
				return false, call.err
			}
			continue
		}
		// A leader may have committed the verdict while we waited. It
		// commits before it lands, so with no call in flight the cache is
		// current under the lock.
		if _, ok := adm.cache.Load(key); ok {
			adm.flightMu.Unlock()
			return false, nil
		}
		call := &admFlightCall{done: make(chan struct{})}
		adm.flight[key] = call
		adm.flightMu.Unlock()
		err := a.fn(ctx, spec, img)
		call.err = err
		call.abandoned = ctx.Err() != nil
		if call.abandoned {
			adm.land([]string{key})
		}
		close(call.done)
		return !call.abandoned, err
	}
}

// land retires the flight calls of keys once the run that led them has
// committed their verdicts to the cache or discarded them.
func (adm *admissionChain) land(keys []string) {
	if len(keys) == 0 {
		return
	}
	adm.flightMu.Lock()
	for _, key := range keys {
		delete(adm.flight, key)
	}
	adm.flightMu.Unlock()
}

// ctxErr maps a done context to the deployment's typed cancellation
// error; nil while the context is live.
func ctxErr(ctx context.Context, workload, stage string) error {
	if err := ctx.Err(); err != nil {
		return &CancelledError{Workload: workload, Stage: stage, Err: err}
	}
	return nil
}
