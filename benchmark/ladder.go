package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"genio/api"
	"genio/api/client"
	"genio/api/server"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/federation"
	"genio/internal/malware"
	"genio/internal/orchestrator"
	"genio/internal/orchestrator/scheduler"
	"genio/internal/persist"
	"genio/internal/pki"
	"genio/internal/rbac"
	"genio/internal/sandbox"
	"genio/internal/sast"
	"genio/internal/sca"
	"genio/internal/scap"
)

// ladderBatches bounds the batches the in-process rungs replay.
const ladderBatches = 8

// leafExtraVariants are images pushed beyond the plan's, so that every
// workload — also the ones whose stream never misses a cache — reports
// what a cold pull and each scanner cost.
const leafExtraVariants = 64

// pass is one descent of the ladder: the epoch's plan, a tracer, and
// the per-layer values read off it.
type pass struct {
	w      *workload
	pl     *plan
	tr     *tracer
	outDir string
	vals   map[string]float64
	// The three deploy medians (µs) whose differences are the wire rows:
	// untraced wire, traced wire (rung 0), in-memory transport (rung 1).
	// One pass's pair differs by more than the rows are worth, so they
	// are subtracted only after taking each one's median over the run.
	plainP50, wireP50, memP50 float64
	tally                     // the oracle checks of every rung
}

// run calls fn, inside a span when the op is a measured one.
func (p *pass) run(timed bool, rung int, name string, op int, fn func()) {
	if timed {
		p.tr.time(rung, name, op, fn)
	} else {
		fn()
	}
}

func (p *pass) batches() [][]api.WorkloadSpec {
	if len(p.pl.Batches) > ladderBatches {
		return p.pl.Batches[:ladderBatches]
	}
	return p.pl.Batches
}

// placed keeps the spans of deploys that were expected to place — the
// population deploy_p50_us is computed over.
func (p *pass) placed(s *span) bool {
	return s.Op >= 0 && s.Op < len(p.pl.Sync) && p.pl.Sync[s.Op].Expect == expectPlaced
}

// med is the median duration (µs) of a rung's spans of one name.
func (p *pass) med(rung int, name string, keep func(*span) bool) float64 {
	d := p.tr.durations(rung, name, keep)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// inProcess builds the workload's platform in this process on a fresh
// WAL directory, exactly as the daemon does.
func (p *pass) inProcess(extraVariants int) (*core.Platform, *persist.WAL, string, error) {
	dir, err := newRunDir(p.outDir)
	if err != nil {
		return nil, nil, "", err
	}
	wal, err := persist.OpenWAL(filepath.Join(dir, dataSubdir))
	if err != nil {
		removeRunDir(dir)
		return nil, nil, "", err
	}
	fx := p.pl.Fixture
	fx.Variants += extraVariants
	plat, err := buildPlatform(&fx, wal)
	if err != nil {
		removeRunDir(dir)
		return nil, nil, "", err
	}
	return plat, wal, dir, nil
}

func toSpec(s api.WorkloadSpec) orchestrator.WorkloadSpec {
	spec, err := s.ToOrchestrator()
	if err != nil {
		panic(err) // the generator only emits valid isolation names
	}
	return spec
}

// ---- rung 1: the real client against the real handler, no socket

// memTransport hands client requests straight to the server's handler.
// What it removes relative to rung 0 is exactly loopback TCP and
// net/http's connection handling on both sides.
type memTransport struct {
	h  http.Handler
	tr *tracer
}

type memResponse struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) Write(b []byte) (int, error) { return m.body.Write(b) }
func (m *memResponse) WriteHeader(code int)        { m.code = code }

// streamResponse backs GET /v2/watch: the handler keeps writing frames
// into a pipe the client reads as the response body.
type streamResponse struct {
	header http.Header
	pw     *io.PipeWriter
	code   int
	ready  chan struct{}
	once   sync.Once
}

func (s *streamResponse) Header() http.Header { return s.header }
func (s *streamResponse) WriteHeader(code int) {
	s.once.Do(func() { s.code = code; close(s.ready) })
}
func (s *streamResponse) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.pw.Write(b)
}
func (s *streamResponse) Flush() {}

func spanName(path string) string {
	switch {
	case path == "/v2/deployments":
		return "server.deploy"
	case path == "/v2/deploy/batch":
		return "server.batch"
	case path == "/v2/nodes":
		return "server.nodes"
	}
	return "server.other"
}

func (m memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// The server must see what a socket would give it: a one-shot body
	// and a request it is free to annotate.
	sreq := req.Clone(req.Context())
	sreq.GetBody = nil
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	resp := &http.Response{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Request: req}
	if req.URL.Path == "/v2/watch" {
		pr, pw := io.Pipe()
		sw := &streamResponse{header: make(http.Header), pw: pw, ready: make(chan struct{})}
		go func() {
			m.h.ServeHTTP(sw, sreq)
			sw.WriteHeader(http.StatusOK)
			pw.Close()
		}()
		<-sw.ready
		resp.StatusCode, resp.Header, resp.Body = sw.code, sw.header.Clone(), pr
		return resp, nil
	}
	rec := &memResponse{header: make(http.Header), code: http.StatusOK}
	m.tr.time(rungMem, spanName(req.URL.Path), -1, func() { m.h.ServeHTTP(rec, sreq) })
	resp.StatusCode, resp.Header = rec.code, rec.header
	resp.Body = io.NopCloser(bytes.NewReader(rec.body.Bytes()))
	resp.ContentLength = int64(rec.body.Len())
	return resp, nil
}

// memRung is rung 1: the real client against the real handler.
type memRung struct {
	p    *pass
	plat *core.Platform
	srv  *server.Server
	c    *client.HTTP
	dir  string
}

func (p *pass) newMemRung() (*memRung, error) {
	plat, _, dir, err := p.inProcess(0)
	if err != nil {
		return nil, err
	}
	id, err := plat.CA.Issue(clientSubject, pki.RoleService)
	if err != nil {
		plat.Close()
		removeRunDir(dir)
		return nil, err
	}
	srv := server.New(plat, server.Options{CA: plat.CA})
	c := client.NewHTTP("http://in-memory", client.WithIdentity(id),
		client.WithHTTPClient(&http.Client{Transport: memTransport{h: srv.Handler(), tr: p.tr}}))
	return &memRung{p: p, plat: plat, srv: srv, c: c, dir: dir}, nil
}

func (r *memRung) close() {
	r.srv.Close()
	r.plat.Close()
	removeRunDir(r.dir)
}

func (r *memRung) deploy(ctx context.Context, op *deployOp, timed bool) {
	var wl *api.Workload
	var err error
	r.p.run(timed, rungMem, "client.deploy", op.ID, func() { wl, err = r.c.Deploy(ctx, op.Spec) })
	msg := checkDeploy(op, wl, err)
	r.p.check(msg == "", "rung 1 %s", msg)
}

// rest replays the batches under an open watch stream, as on the wire
// (lifecycle events are only published while someone subscribes), then
// the scored fleet reads.
func (r *memRung) rest(ctx context.Context) error {
	p, c := r.p, r.c
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	evs, err := c.Watch(wctx, api.WatchSelector{})
	if err != nil {
		return fmt.Errorf("rung 1 watch: %w", err)
	}
	want := len(p.batches()) * batchSize
	seen := make(chan int, 1)
	go func() {
		n := 0
		for ev := range evs {
			if ev.Terminal() {
				n++
			}
			if n == want {
				break
			}
		}
		seen <- n
	}()
	for b, specs := range p.batches() {
		var res []client.BatchResult
		var err error
		p.tr.time(rungMem, "client.batch", b, func() { res, err = c.DeployBatch(ctx, specs) })
		ok := err == nil
		for _, r := range res {
			ok = ok && r.Err == nil
		}
		p.check(ok, "rung 1 batch %d: %v", b, err)
	}
	if want > 0 {
		select {
		case n := <-seen:
			p.check(n == want, "rung 1 watch: %d terminal events of %d", n, want)
		case <-time.After(10 * time.Second):
			p.check(false, "rung 1 watch: timed out")
		}
	}
	cancel()
	for i := 0; i < p.pl.Reads; i++ {
		p.tr.time(rungMem, "client.nodes", i, func() {
			_, err = c.Nodes(ctx, &p.pl.Probe, "")
		})
		p.check(err == nil, "rung 1 nodes: %v", err)
	}
	return nil
}

// ---- rung 2: core.Platform

// coreRung is rung 2: core.Platform's own entry points.
type coreRung struct {
	p    *pass
	plat *core.Platform
	dir  string
	dead bool // the platform was crashed by rest
}

func (p *pass) newCoreRung() (*coreRung, error) {
	plat, _, dir, err := p.inProcess(0)
	if err != nil {
		return nil, err
	}
	return &coreRung{p: p, plat: plat, dir: dir}, nil
}

func (r *coreRung) close() {
	if !r.dead {
		r.plat.Close()
	}
	removeRunDir(r.dir)
}

func (r *coreRung) deploy(ctx context.Context, op *deployOp, timed bool) {
	spec := toSpec(op.Spec)
	var err error
	r.p.run(timed, rungCore, "core.deploy", op.ID, func() { _, err = r.plat.DeployContext(ctx, clientSubject, spec) })
	r.p.check((err == nil) == (op.Expect == expectPlaced), "rung 2 %s: %v", op.Spec.Name, err)
}

// rest replays the batches — the first one future by future, the
// others through the batch fan-out, all under an open Watch — and then
// measures what a restart pays at this state.
func (r *coreRung) rest(ctx context.Context) error {
	p, plat, dir := r.p, r.plat, r.dir
	var err error
	batches := p.batches()
	if len(batches) > 0 {
		wctx, cancel := context.WithCancel(ctx)
		defer cancel()
		evs, err := plat.Watch(wctx, core.WatchSelector{TerminalOnly: true})
		if err != nil {
			return fmt.Errorf("rung 2 watch: %w", err)
		}
		// next reads one terminal event, or gives up with the run's guard.
		next := func() {
			select {
			case <-evs:
			case <-ctx.Done():
			}
		}
		// The first batch goes one future at a time, the rest through the
		// batch fan-out; each terminal event is timed from its call.
		for i, s := range batches[0] {
			spec := toSpec(s)
			sp := p.tr.begin(rungCore, "core.deploy_async", i)
			d, err := plat.DeployAsync(ctx, clientSubject, spec)
			if err == nil {
				_, err = d.Result()
			}
			p.tr.end(sp)
			p.check(err == nil, "rung 2 async %s: %v", s.Name, err)
			sp = p.tr.begin(rungCore, "core.watch_deliver", i)
			next()
			p.tr.end(sp)
		}
		for b, specs := range batches[1:] {
			conv := make([]orchestrator.WorkloadSpec, len(specs))
			for i, s := range specs {
				conv[i] = toSpec(s)
			}
			var errs []error
			p.tr.time(rungCore, "core.deploy_batch", b, func() { _, errs = plat.DeployBatchContext(ctx, clientSubject, conv) })
			for _, err := range errs {
				p.check(err == nil, "rung 2 batch %d: %v", b, err)
			}
			for range specs {
				next()
			}
		}
		cancel()
	}
	p.vals["core.incidents"] = float64(len(plat.Incidents()))
	workloads := plat.Cluster.WorkloadCount()

	// Recovery at this state: kill -9 semantics (flush-only close), then
	// what a restart pays, piece by piece.
	plat.Crash()
	r.dead = true
	data := filepath.Join(dir, dataSubdir)
	var wal *persist.WAL
	var st *persist.State
	p.tr.time(rungLeaf, "persist.open_load", -1, func() {
		if wal, err = persist.OpenWAL(data); err == nil {
			st, err = wal.Load()
		}
	})
	if err != nil {
		return fmt.Errorf("rung 2 reopen: %w", err)
	}
	p.check(st != nil && len(st.Cluster.Workloads) == workloads, "rung 2 reload: %d workloads expected", workloads)
	var rec *core.Platform
	p.tr.time(rungCore, "core.new_recover", -1, func() { rec, err = core.New(core.SecureConfig(), core.WithStore(wal)) })
	if err != nil {
		_ = wal.Close()
		return fmt.Errorf("rung 2 recover: %w", err)
	}
	p.check(rec.Cluster.WorkloadCount() == workloads, "rung 2 recover: %d of %d workloads", rec.Cluster.WorkloadCount(), workloads)
	rec.Crash()
	if wal, err = persist.OpenWAL(data); err != nil {
		return err
	}
	if st, err = wal.Load(); err != nil || st == nil {
		_ = wal.Close()
		return fmt.Errorf("rung 2 reload for snapshot: %v", err)
	}
	st.LSN = wal.LastLSN()
	p.tr.time(rungLeaf, "persist.snapshot", -1, func() { err = wal.Snapshot(st) })
	p.check(err == nil, "rung 2 snapshot: %v", err)
	size, _ := fileStats(filepath.Join(data, "snapshot.json"))
	p.vals["persist.snapshot_bytes"] = float64(size)
	return wal.Close()
}

// ---- rung 3: the cluster (or the federation above it)

// clusterRung is rung 3: the default cluster's own entry points, or on
// a federated workload the federation above it plus — on a second
// platform — the member cluster the federation chose, so that every
// member's caches see the same sequence and the difference between the
// two is the federation's own work.
type clusterRung struct {
	p         *pass
	plat      *core.Platform // deploys land in a cluster directly
	wal       *persist.WAL
	dir       string
	routed    *core.Platform // federated workloads only
	rdir      string
	lsnBefore uint64              // the store's LSN when the measured replay began
	placed    int                 // measured deploys placed on plat
	digests   map[string]struct{} // distinct clean images placed on plat
	member    map[int]string      // op id -> member that placed it
}

func (p *pass) newClusterRung() (*clusterRung, error) {
	plat, wal, dir, err := p.inProcess(0)
	if err != nil {
		return nil, err
	}
	r := &clusterRung{p: p, plat: plat, wal: wal, dir: dir,
		digests: make(map[string]struct{}), member: make(map[int]string)}
	if len(p.w.Members) > 0 {
		if r.routed, _, r.rdir, err = p.inProcess(0); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *clusterRung) close() {
	r.plat.Close()
	removeRunDir(r.dir)
	if r.routed != nil {
		r.routed.Close()
		removeRunDir(r.rdir)
	}
}

func (r *clusterRung) deploy(ctx context.Context, op *deployOp, timed bool) {
	p := r.p
	spec := toSpec(op.Spec)
	target := r.plat.Cluster
	if r.routed != nil {
		var at federation.Placement
		var err error
		p.run(timed, rungCluster, "federation.deploy", op.ID, func() {
			_, at, err = r.routed.Federation.DeployObserved(ctx, clientSubject, spec, nil)
		})
		p.check((err == nil) == (op.Expect == expectPlaced), "rung 3 federation %s: %v", op.Spec.Name, err)
		if op.Expect == expectPinned {
			return // refused above the clusters: no member ever sees it
		}
		if err == nil {
			if timed {
				r.member[op.ID] = at.Cluster
			}
			if target, err = r.plat.ClusterByName(at.Cluster); err != nil {
				p.check(false, "rung 3: %v", err)
				return
			}
		}
	}
	var err error
	p.run(timed, rungCluster, "orchestrator.deploy", op.ID, func() { _, err = target.DeployContext(ctx, clientSubject, spec) })
	p.check((err == nil) == (op.Expect == expectPlaced), "rung 3 %s: %v", op.Spec.Name, err)
	if err == nil {
		r.digests[op.Spec.ImageRef] = struct{}{}
		if timed {
			r.placed++
		}
	}
}

// rest reads the counters the replay left behind and runs the operator
// verbs on the default cluster at this state.
func (r *clusterRung) rest(ctx context.Context) error {
	p, plat := r.p, r.plat
	var err error
	if r.routed != nil {
		p.federationCounts(r)
	}
	// What the measured replay appended per placement: an exact count.
	// (Below 1 on a federation, where only the first member persists.)
	p.vals["persist.wal_records_per_deploy"] = float64(r.wal.LastLSN()-r.lsnBefore) / float64(r.placed)
	entries, admitted, rejected, err := admissionState(plat)
	if err != nil {
		return err
	}
	p.vals["admission.cache_entries"] = float64(entries)
	p.vals["admission.scans_per_digest"] = float64(entries) / 4 / float64(len(r.digests))
	p.vals["orchestrator.admitted"] = float64(admitted)
	p.vals["orchestrator.rejected"] = float64(rejected)

	// Operator verbs on the default cluster at this state.
	c := plat.Cluster
	var util []orchestrator.NodeUtilization
	for i := 0; i < p.pl.Reads; i++ {
		p.tr.time(rungCluster, "orchestrator.utilization", i, func() { util = c.Utilization() })
	}
	fullest, second := "", ""
	count := make(map[string]int)
	for _, u := range util {
		count[u.Node] = u.Workloads
		if fullest == "" || u.Workloads > count[fullest] {
			fullest, second = u.Node, fullest
		} else if second == "" || u.Workloads > count[second] {
			second = u.Node
		}
	}
	var dres *orchestrator.DrainResult
	sp := p.tr.begin(rungCluster, "orchestrator.drain", 0)
	dres, err = c.Drain(ctx, fullest)
	p.tr.end(sp)
	p.check(err == nil && len(dres.Migrated) == count[fullest], "rung 3 drain %s: %v", fullest, err)
	if err == nil && len(dres.Migrated) > 0 {
		s := p.tr.spans[sp-1]
		p.vals["orchestrator.drain_per_workload_us"] = us(s.End-s.Start) / float64(len(dres.Migrated))
	}
	p.check(c.Uncordon(fullest) == nil, "rung 3 uncordon")
	// The node the drain just filled is the one worth failing.
	victim := second
	if victim == "" {
		victim = fullest
	}
	onVictim := 0
	for _, u := range c.Utilization() {
		if u.Workloads > onVictim {
			victim, onVictim = u.Node, u.Workloads
		}
	}
	var fres *orchestrator.FailoverResult
	sp = p.tr.begin(rungCluster, "orchestrator.failnode", 0)
	fres, err = c.FailNode(victim)
	p.tr.end(sp)
	p.check(err == nil && len(fres.Rescheduled) == onVictim && len(fres.Evicted) == 0, "rung 3 fail %s: %v", victim, err)
	if err == nil && len(fres.Rescheduled) > 0 {
		s := p.tr.spans[sp-1]
		p.vals["orchestrator.failnode_per_workload_us"] = us(s.End-s.Start) / float64(len(fres.Rescheduled))
	}
	return nil
}

// admissionState sums, over a platform's member clusters, the cached
// clean verdicts and the admitted and rejected deploy counts.
func admissionState(plat *core.Platform) (entries, admitted, rejected int, err error) {
	for _, m := range plat.Clusters() {
		c, err := plat.ClusterByName(m.Name)
		if err != nil {
			return 0, 0, 0, err
		}
		entries += c.AdmissionCacheSize()
		a, r := c.Counters()
		admitted += a
		rejected += r
	}
	return entries, admitted, rejected, nil
}

// federationCounts reads the routing ratios off a federated replay:
// how often the ring's first eligible member was not where the deploy
// landed, and how unevenly the members filled.
func (p *pass) federationCounts(cr *clusterRung) {
	ring := federation.NewRing(0)
	region := make(map[string]string)
	for _, m := range p.w.Members {
		ring.Add(m.Name)
		region[m.Name] = m.Region
	}
	overflow, placed := 0, 0
	per := make(map[string]int)
	for _, op := range p.pl.Sync {
		at, ok := cr.member[op.ID]
		if !ok {
			continue
		}
		placed++
		per[at]++
		digest := op.Spec.ImageRef
		if img, err := cr.plat.Registry.Pull(op.Spec.ImageRef); err == nil {
			digest = img.Digest()
		}
		want := p.w.Pins[op.Spec.Tenant]
		owner := ""
		ring.Walk(op.Spec.Tenant, digest, func(member string) bool {
			if want == "" || region[member] == want {
				owner = member
				return false
			}
			return true
		})
		if owner != at {
			overflow++
		}
	}
	if placed == 0 {
		return
	}
	p.vals["federation.overflow_share"] = float64(overflow) / float64(placed)
	most := 0
	for _, n := range per {
		if n > most {
			most = n
		}
	}
	p.vals["federation.member_spread"] = float64(most) / (float64(placed) / float64(len(p.w.Members)))
}

// ---- rung 4: the leaves

// leafRung is rung 4: the leaves, called one by one on a platform of
// their own (registry, RBAC, CA) and standalone instances of the store,
// the spine and the sandbox.
type leafRung struct {
	p        *pass
	plat     *core.Platform
	dir      string
	verifier *api.Verifier
	sess     *api.Session
	id       *pki.Identity
	scan     func(img *container.Image)
	engine   *scheduler.Engine
	cands    []scheduler.Candidate
	wal      *persist.WAL
	spine    *events.Spine
	enforcer *sandbox.Enforcer
	// publishes is how many spine events one placement emits and
	// verdicts how many clean verdicts a first-seen image caches (and
	// persists); both are counted on this rung's platform, not assumed.
	publishes int
	verdicts  int
	rejErr    error // one real typed rejection, for the error codec
	seen      map[string]bool
	scratch   bytes.Buffer
}

func (p *pass) newLeafRung(ctx context.Context) (*leafRung, error) {
	plat, _, dir, err := p.inProcess(leafExtraVariants)
	if err != nil {
		return nil, err
	}
	r := &leafRung{p: p, plat: plat, dir: dir, engine: scheduler.New(), enforcer: sandbox.NewEnforcer(),
		seen: make(map[string]bool)}
	fail := func(err error) (*leafRung, error) {
		r.close()
		return nil, err
	}
	r.verifier = api.NewVerifier(plat.CA)
	grant, err := r.verifier.IssueSession(clientSubject)
	if err != nil {
		return fail(err)
	}
	r.sess = grant.Session()
	if r.id, err = plat.CA.Issue(clientSubject, pki.RoleService); err != nil {
		return fail(err)
	}
	// The scanners, as core.registerScannersOn builds them.
	mal, err := malware.NewScanner(malware.DefaultRules())
	if err != nil {
		return fail(err)
	}
	bench := scap.DockerBenchProfile()
	scaScan := sca.NewScanner(sca.DependencyDatabase())
	sastScan := sast.NewScanner(sast.DefaultRules())
	tr := p.tr
	r.scan = func(img *container.Image) {
		tr.time(rungLeaf, "malware.scan", -1, func() { _, _ = mal.ScanContext(ctx, img) })
		tr.time(rungLeaf, "scap.docker_bench", -1, func() { _, _ = scap.EvaluateImageContext(ctx, bench, img) })
		tr.time(rungLeaf, "sca.scan", -1, func() { _, _ = scaScan.ScanContext(ctx, img) })
		tr.time(rungLeaf, "sast.scan", -1, func() { _, _ = sastScan.ScanContext(ctx, img) })
	}
	for _, u := range plat.Cluster.Utilization() {
		r.cands = append(r.cands, scheduler.Candidate{Node: u.Node, Capacity: u.Capacity, Used: u.Used})
	}
	p.vals["scheduler.candidates_per_select"] = float64(len(r.cands))
	// persist and events: standalone instances of the real types.
	if r.wal, err = persist.OpenWAL(filepath.Join(dir, "leaf-wal")); err != nil {
		return fail(err)
	}
	r.spine = events.NewSpine()
	if _, err := r.spine.Subscribe("bench-sink", []events.Topic{events.TopicAudit}, func([]events.Event) {}); err != nil {
		return fail(err)
	}
	// Two deploys of the hot image calibrate the replay: the first meets
	// cold caches and shows how many verdicts get cached, the second how
	// many events a placement publishes.
	deploy := func(name, ref string) error {
		_, err := plat.DeployContext(ctx, clientSubject, orchestrator.WorkloadSpec{
			Name: name, Tenant: tenantName(2), ImageRef: ref,
			Resources: orchestrator.Resources{CPUMilli: deployCPU, MemoryMB: deployMem}})
		return err
	}
	published := func() (n uint64) {
		for _, ts := range plat.Metrics() {
			n += ts.Published
		}
		return n
	}
	err = deploy("leaf-cold", hotRef)
	r.verdicts, _, _, _ = admissionState(plat)
	before := published()
	if err == nil {
		err = deploy("leaf-hot", hotRef)
	}
	r.publishes = int(published() - before)
	p.check(err == nil && r.verdicts > 0 && r.publishes > 0,
		"rung 4: calibration deploys: %d verdicts, %d events, err=%v", r.verdicts, r.publishes, err)
	r.seen[hotRef] = true
	r.rejErr = deploy("leaf-miner", minerRef)
	p.check(r.rejErr != nil, "rung 4: cryptominer was admitted")
	return r, nil
}

func (r *leafRung) close() {
	if r.spine != nil {
		r.spine.Close()
	}
	if r.wal != nil {
		_ = r.wal.Close()
	}
	r.plat.Close()
	removeRunDir(r.dir)
}

func (r *leafRung) encodeError() {
	r.p.tr.time(rungLeaf, "api.encode_error", -1, func() {
		r.scratch.Reset()
		_ = json.NewEncoder(&r.scratch).Encode(api.Encode(r.rejErr))
	})
}

// deploy calls, with the op's own inputs and in pipeline order, each
// leaf function a deploy of that op passes through. An untimed call
// (warm-up) only leaves the caches as the op would.
func (r *leafRung) deploy(ctx context.Context, op *deployOp, timed bool) {
	p, tr, plat := r.p, r.p.tr, r.plat
	if !timed {
		if op.Expect == expectPlaced {
			if _, err := plat.Registry.PullVerified(op.Spec.ImageRef); err == nil {
				r.seen[op.Spec.ImageRef] = true
			}
		}
		return
	}
	var err error
	root := tr.begin(rungLeaf, "leaf.deploy", op.ID)
	defer tr.end(root)
	body, _ := json.Marshal(api.DeployRequest{Spec: op.Spec})
	req, _ := http.NewRequest(http.MethodPost, "http://in-memory/v2/deployments", bytes.NewReader(body))
	tr.time(rungLeaf, "api.sign_session", -1, func() { err = api.SignRequestSession(req, r.sess) })
	req.GetBody = nil // the server reads a one-shot body
	tr.time(rungLeaf, "api.verify_session", -1, func() { _, err = r.verifier.Verify(req) })
	p.check(err == nil, "rung 4 verify: %v", err)
	var dreq api.DeployRequest
	var spec orchestrator.WorkloadSpec
	tr.time(rungLeaf, "api.decode_spec", -1, func() {
		if err = json.Unmarshal(body, &dreq); err == nil {
			spec, err = dreq.Spec.ToOrchestrator()
		}
	})
	if op.Expect == expectPinned {
		r.encodeError()
		return
	}
	tr.time(rungLeaf, "rbac.check", -1, func() {
		plat.RBAC.Check(clientSubject, rbac.Permission{Verb: "create", Resource: "workloads", Namespace: spec.Tenant})
	})
	cold := !r.seen[spec.ImageRef]
	pull := "container.pull_verified_hot"
	switch {
	case op.Expect == expectUnsigned:
		pull = "container.pull_refused"
	case cold:
		pull = "container.pull_verified_cold"
	}
	var img *container.Image
	tr.time(rungLeaf, pull, -1, func() { img, err = plat.Registry.PullVerified(spec.ImageRef) })
	if op.Expect == expectUnsigned {
		r.encodeError()
		return
	}
	tr.time(rungLeaf, "container.digest", -1, func() { _ = img.Digest() })
	if cold || op.Expect == expectAdmission {
		// A refused image reruns the scanners that refused it on every
		// deploy (only clean verdicts are cached); all four are timed
		// here, and a rejected op is outside every self-time sum.
		r.scan(img)
	}
	if op.Expect == expectAdmission {
		r.encodeError()
		return
	}
	sreq := scheduler.Request{Workload: spec.Name, Tenant: spec.Tenant, Demand: spec.Resources, Strategy: scheduler.StrategyBinpack}
	if spec.PlacementPolicy == "spread" {
		sreq.Strategy = scheduler.StrategySpread
	}
	tr.time(rungLeaf, "scheduler.select", -1, func() { r.engine.Select(&sreq, r.cands) })
	w := &orchestrator.Workload{Spec: spec, Node: r.cands[0].Node, VMID: "vm-001", Strategy: string(sreq.Strategy)}
	tr.time(rungLeaf, "persist.append", -1, func() {
		_ = r.wal.Append(persist.Record{Kind: persist.KindPlace, Workload: w, VMSeq: 1})
	})
	if cold {
		for i := 0; i < r.verdicts; i++ {
			tr.time(rungLeaf, "persist.append", -1, func() {
				_ = r.wal.Append(persist.Record{Kind: persist.KindVerdict, Key: fmt.Sprintf("scanner-%d\x00%s", i, spec.ImageRef)})
			})
		}
		r.seen[spec.ImageRef] = true
	}
	for i := 0; i < r.publishes; i++ {
		tr.time(rungLeaf, "events.publish", -1, func() {
			_ = r.spine.Publish(events.Event{Topic: events.TopicAudit, Key: spec.Tenant,
				Payload: orchestrator.AuditEvent{Kind: "placement", Workload: spec.Name, Tenant: spec.Tenant, Allowed: true}})
		})
	}
	tr.time(rungLeaf, "sandbox.set_policy", -1, func() { r.enforcer.SetPolicy(spec.Name, sandbox.DefaultWorkloadPolicy()) })
	tr.time(rungLeaf, "api.encode_workload", -1, func() {
		r.scratch.Reset()
		_ = json.NewEncoder(&r.scratch).Encode(api.FromWorkload(w))
	})
}

// settle runs what follows every sequential deploy off the request
// path: the WAL's group commit and the spine's drain.
func (r *leafRung) settle(op *deployOp) {
	r.p.tr.time(rungLeaf, "persist.flush", op.ID, func() { _ = r.wal.Flush() })
	r.p.tr.time(rungLeaf, "events.flush", op.ID, func() { r.spine.Flush() })
}

// rest times the leaves this workload's stream may never reach — cold
// pulls and scans on a hot stream, the Ed25519 path, the error codec,
// both fleet sizes of the scheduler, the ring — so every workload
// reports every leaf.
func (r *leafRung) rest(ctx context.Context) error {
	p, tr, plat := r.p, r.p.tr, r.plat
	var err error
	for i := 0; i < leafExtraVariants; i++ {
		ref := variantRef(p.pl.Fixture.Variants + i)
		var img *container.Image
		tr.time(rungLeaf, "container.pull_verified_cold", -1, func() { img, err = plat.Registry.PullVerified(ref) })
		if err != nil {
			return fmt.Errorf("rung 4 cold pull %s: %w", ref, err)
		}
		r.scan(img)

		sreq, _ := http.NewRequest(http.MethodGet, "http://in-memory/v2/nodes", nil)
		if err := api.SignRequest(sreq, r.id); err != nil {
			return err
		}
		tr.time(rungLeaf, "api.verify_ed25519", -1, func() { _, err = r.verifier.Verify(sreq) })
		p.check(err == nil, "rung 4 ed25519 verify: %v", err)
		r.encodeError()
		tr.time(rungLeaf, "api.decode_error", -1, func() {
			var back api.WireError
			if json.Unmarshal(r.scratch.Bytes(), &back) == nil {
				_ = api.Decode(&back)
			}
		})
	}
	for _, n := range []int{8, 256} {
		fleet := make([]scheduler.Candidate, n)
		for i := range fleet {
			fleet[i] = scheduler.Candidate{Node: fmt.Sprintf("node-%03d", i),
				Capacity: scheduler.Resources{CPUMilli: fleetCPU, MemoryMB: fleetMemMB},
				Used:     scheduler.Resources{CPUMilli: (i % 40) * deployCPU, MemoryMB: (i % 40) * deployMem}}
		}
		req := scheduler.Request{Workload: "probe", Tenant: tenantName(0),
			Demand: scheduler.Resources{CPUMilli: deployCPU, MemoryMB: deployMem}, Strategy: scheduler.StrategySpread}
		for i := 0; i < 256; i++ {
			tr.time(rungLeaf, fmt.Sprintf("scheduler.select_%d", n), -1, func() { r.engine.Select(&req, fleet) })
		}
	}
	ring := federation.NewRing(0)
	for _, m := range []string{"edge-a", "edge-b", "edge-c"} {
		ring.Add(m)
	}
	// One Owner call is tens of nanoseconds, below the clock's
	// resolution: time 1000 and divide.
	const ringCalls = 1000
	start := time.Now()
	for i := 0; i < ringCalls; i++ {
		ring.Owner(tenantName(i%tenants), variantRef(i))
	}
	p.vals["federation.ring_owner_ns"] = float64(time.Since(start).Nanoseconds()) / ringCalls
	return nil
}
