package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genio/api"
	"genio/api/client"
	"genio/internal/federation"
	"genio/internal/orchestrator"
)

// epochStats is everything one epoch measured. Latency slices hold one
// value per request.
type epochStats struct {
	setupS   float64
	bootMs   float64
	deployUs []float64 // sync deploys that were expected to place, and did
	probeUs  []float64 // GET /v2/healthz right after every probeEvery-th sync deploy
	rejectUs []float64 // sync deploys the gate had to refuse, and did, typed
	batchMs  []float64
	lagMs    []float64 // batch send -> each of its terminal events on the stream
	nodesUs  []float64
	drainUs  []float64 // drain latency / workloads migrated

	handled    int     // deploy specs answered as the generator expected, sync and bulk
	bulkPlaced int     // placements of the bulk phase,
	bulkWallS  float64 // from its first batch sent to its last terminal event read
	// Daemon CPU: the scheduler's exact per-thread run time per phase, and
	// over both phases the kernel's user/system split in clock ticks.
	cpuSyncUs float64
	cpuBulkUs float64
	userTicks int64
	sysTicks  int64
	rssMB     float64
	threads   int
	recoverS  []float64 // one per SIGKILL -> restart -> verified cycle
	recovered float64   // share of acknowledged placements present after recovery

	tally

	// Filled for the traced rung only.
	sseFrames   int
	ledger      api.Ledger
	walBytes    int64
	snapBytes   int64
	walRecords  int64
	allPlaced   int // including warm-up
	net         netCounters
	deployReqB  float64
	deployRespB float64
}

// tally counts oracle checks and keeps the first few failures' words.
type tally struct {
	attempted, failed int
	failures          []string
}

// check counts one assertion and records the failure when it does not
// hold.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
	return ok
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// netCounters is what the loader's transport sees: connections and
// bytes at the dialer, requests at the round tripper.
type netCounters struct {
	conns      atomic.Int64
	sent       atomic.Int64
	received   atomic.Int64
	handshakes atomic.Int64
	// streamed is the body bytes of GET /v2/watch responses: SSE frames.
	streamed atomic.Int64
}

// RoundTrip counts session handshakes and streamed bytes.
func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v2/session" {
		t.n.handshakes.Add(1)
	}
	resp, err := t.Transport.RoundTrip(req)
	if err == nil && req.URL.Path == "/v2/watch" {
		resp.Body = countingBody{resp.Body, &t.n.streamed}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingTransport struct {
	*http.Transport
	n *netCounters
}

type countingConn struct {
	net.Conn
	n *netCounters
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.received.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.sent.Add(int64(n))
	return n, err
}

// newCountingTransport mirrors api/client's own transport settings
// with a dialer that counts connections and bytes.
func newCountingTransport(n *netCounters) countingTransport {
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	return countingTransport{n: n, Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n.conns.Add(1)
			return countingConn{conn, n}, nil
		},
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}}
}

// wireRun drives one workload over loopback TCP against child daemons.
type wireRun struct {
	w      *workload
	seed   int64
	outDir string
	tr     *tracer // nil: untraced (every end-to-end number comes from untraced runs)
}

// connect loads the identity the daemon just issued and builds the
// client genioctl would: Ed25519 handshake on first use, HMAC session
// after. The http.Client under it is returned too, so that health
// probes travel on the same connection as the signed requests.
func (r *wireRun) connect(dir string, d *daemonProc, n *netCounters) (*client.HTTP, *http.Client, error) {
	id, err := api.LoadIdentity(filepath.Join(dir, identityFile))
	if err != nil {
		return nil, nil, err
	}
	hc := &http.Client{Transport: newCountingTransport(n)}
	return client.NewHTTP("http://"+d.addr, client.WithIdentity(id), client.WithHTTPClient(hc)), hc, nil
}

// checkDeploy compares one reply with the generator's promise; "" is a
// match.
func checkDeploy(op *deployOp, wl *api.Workload, err error) string {
	switch op.Expect {
	case expectPlaced:
		if err != nil {
			return fmt.Sprintf("%s: expected placement, got %v", op.Spec.Name, err)
		}
		if wl == nil || wl.Node == "" || wl.Spec.Name != op.Spec.Name {
			return fmt.Sprintf("%s: placement reply malformed: %+v", op.Spec.Name, wl)
		}
		return ""
	case expectAdmission:
		var ae *orchestrator.AdmissionError
		if errors.As(err, &ae) && errors.Is(err, orchestrator.ErrRejected) && len(ae.Rejections()) > 0 {
			return ""
		}
	case expectUnsigned:
		var pe *orchestrator.ImagePullError
		if errors.As(err, &pe) && errors.Is(err, orchestrator.ErrRejected) && pe.Ref == op.Spec.ImageRef {
			return ""
		}
	case expectPinned:
		var re *federation.RegionPinnedError
		if errors.As(err, &re) && re.Tenant == op.Spec.Tenant {
			return ""
		}
	}
	return fmt.Sprintf("%s: expected %s, got wl=%v err=%v", op.Spec.Name, op.Expect, wl != nil, err)
}

// fleet is a GET /v2/nodes reply reduced to what the audits compare.
type fleet struct {
	perNode map[string]int
	total   int
}

func readFleet(ctx context.Context, c *client.HTTP, probe *api.Resources) (fleet, error) {
	rows, err := c.Nodes(ctx, probe, "")
	if err != nil {
		return fleet{}, err
	}
	f := fleet{perNode: make(map[string]int, len(rows))}
	for _, row := range rows {
		f.perNode[row.Node] = row.Workloads
		f.total += row.Workloads
	}
	return f, nil
}

// fullest picks, among the named nodes, the one holding most workloads
// (ties to the lowest name, so the choice is a function of the state).
func (f fleet) fullest(among []string) string {
	best := ""
	for _, n := range among {
		if c := f.perNode[n]; best == "" || c > f.perNode[best] || (c == f.perNode[best] && n < best) {
			best = n
		}
	}
	return best
}

// epochRun is one epoch in flight: its plan, its daemon, its client.
type epochRun struct {
	*wireRun
	pl  *plan
	st  *epochStats
	dir string
	d   *daemonProc
	c   *client.HTTP
	hc  *http.Client // c's transport, for the unsigned health probe
	// k is how many incidents one admission rejection records on this
	// fixture, measured from the warm-up's single cryptominer deploy.
	k int
}

// epoch runs the five phases once on a fresh daemon and data dir.
func (r *wireRun) epoch(ctx context.Context, epoch int) (*epochStats, error) {
	e := &epochRun{wireRun: r, pl: r.w.generate(r.seed, epoch), st: &epochStats{}}
	defer e.close()
	for _, phase := range []func(context.Context) error{e.setUp, e.load, e.operate, e.audit, e.recover} {
		if err := phase(ctx); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return e.st, nil
}

func (e *epochRun) close() {
	if e.c != nil {
		e.c.Close()
	}
	if e.d != nil {
		e.d.kill()
	}
	if e.dir != "" {
		removeRunDir(e.dir)
	}
}

// setUp is everything before the first measured request, timed as
// setup_s: write the fixture, boot the daemon (which builds it), load
// the identity, handshake, warm up.
func (e *epochRun) setUp(ctx context.Context) error {
	start := time.Now()
	var err error
	if e.dir, err = newRunDir(e.outDir); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(e.dir, fixtureFile), e.pl.Fixture); err != nil {
		return err
	}
	if e.d, err = startDaemon(ctx, e.dir, daemonProcs()); err != nil {
		return err
	}
	e.st.bootMs = e.d.bootMs
	if e.c, e.hc, err = e.connect(e.dir, e.d, &e.st.net); err != nil {
		return err
	}
	for i := range e.pl.Warmup {
		op := &e.pl.Warmup[i]
		wl, err := e.c.Deploy(ctx, op.Spec)
		msg := checkDeploy(op, wl, err)
		if !e.st.check(msg == "", "warm-up %s", msg) && ctx.Err() != nil {
			return ctx.Err()
		}
	}
	e.st.setupS = time.Since(start).Seconds()

	if _, admission := e.pl.expected(); admission > 0 {
		inc, err := e.c.Incidents(ctx)
		if err != nil {
			return err
		}
		e.k = inc["admission"]
		e.st.check(e.k >= 1, "warm-up cryptominer recorded %d admission incidents", e.k)
	}
	return nil
}

// probeEvery is how many sync deploys pass between two health probes.
const probeEvery = 4

// load is the sync phase followed by the bulk phase, with the daemon's
// CPU read before, between and after.
func (e *epochRun) load(ctx context.Context) error {
	st := e.st
	before, err := e.d.usage()
	if err != nil {
		return err
	}
	if err := e.sync(ctx); err != nil {
		return err
	}
	between, err := e.d.usage()
	if err != nil {
		return err
	}
	if err := e.bulk(ctx); err != nil {
		return err
	}
	after, err := e.d.usage()
	if err != nil {
		return err
	}
	st.userTicks, st.sysTicks = after.userTicks-before.userTicks, after.sysTicks-before.sysTicks
	st.cpuSyncUs, st.cpuBulkUs = us(between.runNs-before.runNs), us(after.runNs-between.runNs)
	if after.runNs == 0 { // no schedstat: the tick-sampled total, split by op count
		total := float64(st.userTicks+st.sysTicks) * 1e6 / clockTick
		st.cpuSyncUs = total * float64(len(e.pl.Sync)) / float64(len(e.pl.Sync)+st.bulkPlaced)
		st.cpuBulkUs = total - st.cpuSyncUs
	}
	return nil
}

// sync sends the plan's deploys one at a time and, right after every
// probeEvery-th, one health probe on the same connection. A sequential
// round trip on this kind of runner is mostly the host waking two idle
// vCPUs, a cost that drifts by tens of percent within minutes; the probe
// pays it at the same instant without touching the platform, so the
// deploy's latency in probes repeats where its microseconds do not.
func (e *epochRun) sync(ctx context.Context) error {
	st := e.st
	sentBefore, recvBefore := st.net.sent.Load(), st.net.received.Load()
	probeSent, probeRecv := int64(0), int64(0)
	for i := range e.pl.Sync {
		op := &e.pl.Sync[i]
		sp := e.tr.begin(rungWire, "client.deploy", op.ID)
		t0 := time.Now()
		wl, err := e.c.Deploy(ctx, op.Spec)
		t1 := time.Now()
		e.tr.end(sp)
		if msg := checkDeploy(op, wl, err); !st.check(msg == "", "%s", msg) {
			if ctx.Err() != nil {
				return ctx.Err()
			}
		} else {
			st.handled++
			if op.Expect == expectPlaced {
				st.deployUs = append(st.deployUs, us(t1.Sub(t0).Nanoseconds()))
			} else {
				st.rejectUs = append(st.rejectUs, us(t1.Sub(t0).Nanoseconds()))
			}
		}
		if i%probeEvery == probeEvery-1 {
			s0, r0 := st.net.sent.Load(), st.net.received.Load()
			if err := e.probe(ctx, i); err != nil {
				return err
			}
			probeSent += st.net.sent.Load() - s0
			probeRecv += st.net.received.Load() - r0
		}
	}
	if n := len(e.pl.Sync); n > 0 {
		st.deployReqB = float64(st.net.sent.Load()-sentBefore-probeSent) / float64(n)
		st.deployRespB = float64(st.net.received.Load()-recvBefore-probeRecv) / float64(n)
	}
	return nil
}

// probe is one GET /v2/healthz: no signature, no platform call beyond
// the store's error state. It must answer "ok" — anything else means the
// daemon is running non-durable.
func (e *epochRun) probe(ctx context.Context, op int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+e.d.addr+"/v2/healthz", nil)
	if err != nil {
		return err
	}
	sp := e.tr.begin(rungWire, "client.probe", op)
	t0 := time.Now()
	resp, err := e.hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	e.tr.end(sp)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if e.st.check(err == nil && resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(`"status":"ok"`)),
		"health probe: err=%v body=%s", err, body) {
		e.st.probeUs = append(e.st.probeUs, us(t1.Sub(t0).Nanoseconds()))
	}
	return nil
}

// audit checks the daemon's own books against the generator's, over
// the wire.
func (e *epochRun) audit(ctx context.Context) error {
	st := e.st
	end, err := e.d.usage()
	if err != nil {
		return err
	}
	st.rssMB = float64(end.hwmKB) / 1024
	st.threads = end.threads

	wantPlaced, wantAdmission := e.pl.expected()
	fl, err := readFleet(ctx, e.c, nil)
	if err != nil {
		return err
	}
	st.allPlaced = fl.total
	st.check(fl.total == wantPlaced, "audit: nodes report %d workloads, generator placed %d", fl.total, wantPlaced)
	inc, err := e.c.Incidents(ctx)
	if err != nil {
		return err
	}
	st.check(inc["admission"] == wantAdmission*e.k, "audit: %d admission incidents, expected %d rejections x %d", inc["admission"], wantAdmission, e.k)
	if st.ledger, err = e.c.Ledger(ctx); err != nil {
		return err
	}
	for topic, ts := range st.ledger {
		st.check(ts.Dropped == 0, "audit: topic %s dropped %d events under Block", topic, ts.Dropped)
	}
	return nil
}

// recover kills the daemon the hard way, restarts it on the same data
// directory and reads the fleet back — as many times as the plan says:
// every placement acknowledged before the first kill must be there each
// time, on the node it was on.
func (e *epochRun) recover(ctx context.Context) error {
	st := e.st
	pre, err := readFleet(ctx, e.c, nil)
	if err != nil {
		return err
	}
	if err := e.writeBarrier(ctx); err != nil {
		return err
	}
	if e.tr != nil {
		data := filepath.Join(e.dir, dataSubdir)
		st.walBytes, st.walRecords = fileStats(filepath.Join(data, "wal.log"))
		st.snapBytes, _ = fileStats(filepath.Join(data, "snapshot.json"))
	}
	_, wantAdmission := e.pl.expected()
	for cycle := 0; cycle < e.pl.Recoveries; cycle++ {
		e.c.Close()
		crash := time.Now()
		e.d.kill()
		// geniod's platform logs only when something is wrong (a failed
		// store turns the control plane non-durable and says so once).
		st.check(e.d.stderr.Len() == 0, "daemon wrote to stderr: %s", strings.TrimSpace(e.d.stderr.String()))
		if e.d, err = startDaemon(ctx, e.dir, daemonProcs()); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		// The restarted daemon minted a new CA: new identity, new session.
		if e.c, e.hc, err = e.connect(e.dir, e.d, new(netCounters)); err != nil {
			return err
		}
		post, err := readFleet(ctx, e.c, nil)
		if err != nil {
			return fmt.Errorf("post-recovery read: %w", err)
		}
		st.recoverS = append(st.recoverS, time.Since(crash).Seconds())

		// Only the default cluster persists today: on a federation the other
		// members come back empty, which is recorded, not failed.
		durable := 0
		var differ []string
		for _, node := range e.pl.Local {
			durable += pre.perNode[node]
			if post.perNode[node] != pre.perNode[node] {
				differ = append(differ, fmt.Sprintf("%s %d->%d", node, pre.perNode[node], post.perNode[node]))
			}
		}
		st.recovered = float64(post.total) / float64(pre.total)
		st.check(post.total == durable && len(differ) == 0,
			"recovery %d: %d workloads back, %d acknowledged on the durable cluster, nodes that differ: %v", cycle, post.total, durable, differ)
		inc, err := e.c.Incidents(ctx)
		if err != nil {
			return err
		}
		st.check(inc["admission"] == wantAdmission*e.k, "recovery %d: %d admission incidents, expected %d", cycle, inc["admission"], wantAdmission*e.k)
	}
	return nil
}

// barrierNode is too small to ever receive a workload.
const barrierNode = "wal-barrier"

// writeBarrier makes sure everything acknowledged so far is in the
// store's files before the kill, or the comparison after it would test
// the disk's mood, not recovery. The WAL acknowledges a mutation when it
// is buffered and writes it one background round later — on this shared
// disk a round was seen to take more than 200 ms — and the wire has no
// flush. But the log is ordered, so one last mutation serves as a
// barrier: once its record shows in the log (or in the snapshot that
// compacted it), so does every record before it. SIGKILL takes the
// process, not the page cache.
func (e *epochRun) writeBarrier(ctx context.Context) error {
	if err := e.c.AddNode(ctx, "", barrierNode, api.Resources{CPUMilli: 1, MemoryMB: 1}); err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, name := range []string{"wal.log", "snapshot.json"} {
			data, err := os.ReadFile(filepath.Join(e.dir, dataSubdir, name))
			if err == nil && bytes.Contains(data, []byte(barrierNode)) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("barrier: record not in the store's files after 5 s")
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// bulk sends the plan's batches with a watch stream open and records,
// for every spec, the time from its batch's send to its terminal event
// arriving on the stream.
func (e *epochRun) bulk(ctx context.Context) error {
	c, pl, st := e.c, e.pl, e.st
	if len(pl.Batches) == 0 {
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	events, err := c.Watch(wctx, api.WatchSelector{})
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	sentAt := make([]atomic.Int64, len(pl.Batches))
	want := len(pl.Batches) * batchSize
	var (
		mu       sync.Mutex
		lags     []float64
		frames   int
		bad      []string
		terminal int
	)
	allSeen := make(chan struct{})
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		for ev := range events {
			now := time.Now().UnixNano()
			mu.Lock()
			frames++
			if ev.Terminal() {
				// Names are b-<batch>-<i>; see generate.
				b, perr := strconv.Atoi(strings.SplitN(strings.TrimPrefix(ev.Workload, "b-"), "-", 2)[0])
				switch {
				case perr != nil || b >= len(sentAt) || sentAt[b].Load() == 0:
					bad = append(bad, "unexpected terminal event for "+ev.Workload)
				case ev.State != "running":
					bad = append(bad, ev.Workload+" ended "+ev.State+": "+ev.Detail)
				default:
					lags = append(lags, ms(now-sentAt[b].Load()))
				}
				if terminal++; terminal == want {
					close(allSeen)
				}
			}
			mu.Unlock()
		}
	}()

	start := time.Now()
	for b, specs := range pl.Batches {
		sp := e.tr.begin(rungWire, "client.batch", b)
		t0 := time.Now()
		sentAt[b].Store(t0.UnixNano())
		results, err := c.DeployBatch(ctx, specs)
		t1 := time.Now()
		e.tr.end(sp)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			st.attempted += len(specs)
			st.fail("batch %d: %v", b, err)
			st.failed += len(specs) - 1
			continue
		}
		ok := 0
		for i, res := range results {
			if st.check(res.Err == nil && res.Workload != nil && res.Workload.Node != "" && res.Workload.Spec.Name == specs[i].Name,
				"batch %d spec %d: wl=%v err=%v", b, i, res.Workload != nil, res.Err) {
				ok++
			}
		}
		st.bulkPlaced += ok
		st.handled += ok
		if ok == len(specs) {
			st.batchMs = append(st.batchMs, ms(t1.Sub(t0).Nanoseconds()))
		}
	}
	select {
	case <-allSeen:
	case <-time.After(10 * time.Second):
	case <-ctx.Done():
		return ctx.Err()
	}
	st.bulkWallS = time.Since(start).Seconds()
	cancel()
	<-watcher
	st.check(terminal == want, "watch: %d terminal events for %d batch specs", terminal, want)
	for _, msg := range bad {
		st.fail("watch: %s", msg)
	}
	st.lagMs = lags
	st.sseFrames = frames
	return nil
}

// operate runs the operator cycles: a scored fleet read, a drain of a
// node the read just described, the uncordon that returns it; then the
// node failures.
func (e *epochRun) operate(ctx context.Context) error {
	c, pl, st := e.c, e.pl, e.st
	for i := 0; i < pl.Cycles; i++ {
		var fl fleet
		for j := 0; j < pl.Reads; j++ {
			sp := e.tr.begin(rungWire, "client.nodes", i*pl.Reads+j)
			t0 := time.Now()
			var err error
			fl, err = readFleet(ctx, c, &pl.Probe)
			t1 := time.Now()
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("nodes: %w", err)
			}
			st.check(len(fl.perNode) == len(pl.Fixture.Nodes), "nodes: %d rows for %d nodes", len(fl.perNode), len(pl.Fixture.Nodes))
			st.nodesUs = append(st.nodesUs, us(t1.Sub(t0).Nanoseconds()))
		}
		// Drain whichever default-cluster node the read shows fullest: under
		// the default binpack that is where the deploys went.
		node := fl.fullest(pl.Local)

		sp := e.tr.begin(rungWire, "client.drain", i)
		t0 := time.Now()
		res, err := c.Drain(ctx, node)
		t1 := time.Now()
		e.tr.end(sp)
		if st.check(err == nil && res != nil && len(res.Migrated) == fl.perNode[node] && len(res.Remaining) == 0,
			"drain %s: want %d migrated, got %+v err=%v", node, fl.perNode[node], res, err) && len(res.Migrated) > 0 {
			st.drainUs = append(st.drainUs, us(t1.Sub(t0).Nanoseconds())/float64(len(res.Migrated)))
		}
		err = c.Uncordon(ctx, node)
		st.check(err == nil, "uncordon %s: %v", node, err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	for i, n := range pl.Fails {
		fl, err := readFleet(ctx, c, nil)
		if err != nil {
			return fmt.Errorf("nodes: %w", err)
		}
		sp := e.tr.begin(rungWire, "client.failnode", i)
		res, err := c.FailNode(ctx, n.Name)
		e.tr.end(sp)
		st.check(err == nil && res != nil && len(res.Rescheduled) == fl.perNode[n.Name] && len(res.Evicted) == 0,
			"fail %s: want %d rescheduled, got %+v err=%v", n.Name, fl.perNode[n.Name], res, err)
		err = c.AddNode(ctx, "", n.Name, api.Resources{CPUMilli: n.CPUMilli, MemoryMB: n.MemoryMB})
		st.check(err == nil, "re-add %s: %v", n.Name, err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// fileStats returns a file's size and line count (0, 0 if absent).
func fileStats(path string) (size, lines int64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	return int64(len(data)), lines
}
