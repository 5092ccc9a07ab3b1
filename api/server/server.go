// Package server exposes a core.Platform as the networked control
// plane: the full v2 surface (deploy sync/async, lifecycle watch, node
// lifecycle, far-edge attach, incident/ledger reads) over HTTP, speaking
// the wire-neutral genio/api contract. cmd/geniod wraps this package in
// a daemon; tests and the simulator host it in-process.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"genio/api"
	"genio/internal/core"
	"genio/internal/federation"
	"genio/internal/orchestrator"
	"genio/internal/orchestrator/scheduler"
	"genio/internal/pki"
	"genio/internal/rbac"
)

// Options configures a Server.
type Options struct {
	// CA verifies client certificates. Nil uses the platform's own CA —
	// the common case: geniod and its clients share the cluster trust
	// root.
	CA *pki.CA
	// AllowAnonymous admits requests that present no credential at all,
	// taking the subject from the X-Genio-Subject header ("anonymous" when
	// absent). A request that does present one is verified regardless.
	// This is the legacy posture's insecure default; the secure posture
	// leaves it off and rejects unauthenticated requests with 401.
	AllowAnonymous bool
	// SessionTTL is how long POST /v2/session grants live before the
	// client must re-key over Ed25519. 0 means api.DefaultSessionTTL;
	// tests use tiny values to exercise re-keying.
	SessionTTL time.Duration
}

// terminalRetention caps how many completed async deployments stay
// pollable. Beyond the cap the oldest terminal entries are evicted, so a
// long-running daemon's registry is bounded by its in-flight load plus
// this constant.
const terminalRetention = 512

// asyncDeployment is one registry entry: the server-side future plus
// the subject that created it, which gates status/await/cancel.
type asyncDeployment struct {
	d       *core.Deployment
	owner   string
	retired bool // listed in Server.terminal; guarded by Server.mu
}

// Server serves the control-plane v2 surface for one platform.
type Server struct {
	p        *core.Platform
	opts     Options
	mux      *http.ServeMux
	verifier *api.Verifier

	// Async deployment registry: the server-side ends of the Deployment
	// futures handed out by POST /v2/deployments/async. Terminal entries
	// are retained (at most retention of them, oldest evicted first) so
	// clients can poll after completion.
	mu          sync.Mutex
	deployments map[string]*asyncDeployment
	terminal    []string // eviction order: ids in settle order (see retire)
	retention   int      // terminalRetention; tests lower it

	// events is the SSE replay log, started lazily on the first watch so
	// watch-free servers (benches, most tests) pay nothing. Once started
	// it lives until the server closes (ctx) or the platform does: a
	// server discarded while its platform lives must not leak the log's
	// goroutine and its spine subscription.
	ctx        context.Context
	cancel     context.CancelFunc
	eventsOnce sync.Once
	events     *eventLog
	eventsErr  error

	// inflight tracks async deployments for graceful shutdown; draining
	// refuses new ones once shutdown begins. Both are guarded by mu so a
	// late deploy can never Add after Drain has begun Waiting on a
	// settled group.
	inflight sync.WaitGroup
	draining bool
}

// New builds a server over the platform.
func New(p *core.Platform, opts Options) *Server {
	s := &Server{p: p, opts: opts, deployments: make(map[string]*asyncDeployment), retention: terminalRetention}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if s.opts.CA == nil {
		s.opts.CA = p.CA
	}
	var vopts []api.VerifierOption
	if s.opts.SessionTTL > 0 {
		vopts = append(vopts, api.WithSessionTTL(s.opts.SessionTTL))
	}
	s.verifier = api.NewVerifier(s.opts.CA, vopts...)
	s.mux = http.NewServeMux()
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, s.serve(rt))
	}
	return s
}

// Handler returns the HTTP handler serving the v2 surface.
func (s *Server) Handler() http.Handler { return s.mux }

// credential is what a route accepts as proof of who is calling.
type credential int

const (
	// credSession is the zero value, so a route that says nothing gets
	// it: a MAC under a session POST /v2/session issued, or, on a server
	// that allows anonymous callers, no credential at all.
	credSession credential = iota
	// credCertificate is the Ed25519 handshake: POST /v2/session only.
	credCertificate
	// credNone routes are open: liveness probes carry nothing.
	credNone
)

// route is one row of the v2 surface. The handler receives the
// authenticated subject ("" on a credNone route); a route that takes a
// request body has a withBody handler instead, which also receives the
// body authenticate read.
type route struct {
	pattern  string
	accepts  credential
	handler  func(s *Server, w http.ResponseWriter, r *http.Request, subject string)
	withBody func(s *Server, w http.ResponseWriter, r *http.Request, subject string, body []byte)
}

// routes is the whole v2 surface: New registers exactly these, and the
// route-table test walks them, so a route cannot exist without going
// through serve and authenticate.
var routes = []route{
	{pattern: "GET /v2/healthz", accepts: credNone, handler: (*Server).handleHealthz},
	{pattern: "POST /v2/session", accepts: credCertificate, handler: (*Server).handleSession},
	{pattern: "POST /v2/deployments", withBody: (*Server).handleDeploy},
	{pattern: "POST /v2/deploy/batch", withBody: (*Server).handleDeployBatch},
	{pattern: "POST /v2/deployments/async", withBody: (*Server).handleDeployAsync},
	{pattern: "GET /v2/deployments/{id}", handler: (*Server).handleDeploymentStatus},
	{pattern: "GET /v2/deployments/{id}/await", handler: (*Server).handleDeploymentAwait},
	{pattern: "DELETE /v2/deployments/{id}", handler: (*Server).handleDeploymentCancel},
	{pattern: "GET /v2/watch", handler: (*Server).handleWatch},
	{pattern: "GET /v2/nodes", handler: (*Server).handleNodes},
	{pattern: "POST /v2/nodes", withBody: (*Server).handleAddNode},
	{pattern: "POST /v2/nodes/{name}/cordon", handler: (*Server).handleCordon},
	{pattern: "POST /v2/nodes/{name}/uncordon", handler: (*Server).handleUncordon},
	{pattern: "POST /v2/nodes/{name}/drain", handler: (*Server).handleDrain},
	{pattern: "POST /v2/nodes/{name}/fail", handler: (*Server).handleFail},
	{pattern: "POST /v2/nodes/{name}/onus", withBody: (*Server).handleAttachONU},
	{pattern: "GET /v2/incidents", handler: (*Server).handleIncidents},
	{pattern: "GET /v2/ledger", handler: (*Server).handleLedger},
	{pattern: "GET /v2/clusters", handler: (*Server).handleClusters},
	{pattern: "POST /v2/clusters/{name}/evacuate", handler: (*Server).handleEvacuate},
}

// serve wraps a route's handler in authentication: the handler runs
// only once authenticate has named a subject. The body authenticate
// read lives in a pooled buffer for the length of the request.
func (s *Server) serve(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.accepts == credNone {
			rt.handler(s, w, r, "")
			return
		}
		bp := bufPool.Get().(*[]byte)
		subject, body, err := s.authenticate(r, rt, (*bp)[:0])
		var we *api.WireError
		switch {
		case errors.As(err, &we):
			writeWireError(w, we)
		case errors.Is(err, api.ErrSessionExpired):
			// Recoverable: the client re-keys over Ed25519 and retries.
			writeWireError(w, &api.WireError{Code: api.CodeSessionExpired, Message: err.Error()})
		case err != nil:
			writeWireError(w, &api.WireError{Code: api.CodeUnauthenticated, Message: err.Error()})
		case rt.withBody != nil:
			rt.withBody(s, w, r, subject, body)
		default:
			rt.handler(s, w, r, subject)
		}
		putBuf(bp, body)
	}
}

// authenticate establishes the caller's subject, and is the only code
// that decides which credential a route accepts. The rule: a request
// that presents any credential — session token, certificate, signature
// — is verified, never demoted to anonymous; a certificate signature is
// a credential on the handshake route only; everything else is a
// session MAC — or, when the server allows anonymous callers and the
// request presents nothing at all, the subject header.
//
// It reads the body into buf once, bounded by api.ReadBody: a verified
// request's after the header checks that can refuse without it (the
// signature covers it), an anonymous one's only on a route that takes
// a body. body is buf extended by what was read, on every path.
func (s *Server) authenticate(r *http.Request, rt route, buf []byte) (subject string, body []byte, err error) {
	h := r.Header
	session := h.Get(api.HeaderSession) != ""
	switch {
	case rt.accepts == credCertificate && session:
		// Re-keying always goes back through the asymmetric proof, so a
		// stolen session secret's usefulness ends at its TTL.
		return "", buf, fmt.Errorf("%w: the session handshake must be certificate-signed, not session-authenticated", api.ErrUnauthenticated)
	case rt.accepts == credCertificate || session:
		return s.verifier.VerifyBody(r, buf)
	case h.Get(api.HeaderCertificate) != "" || h.Get(api.HeaderSignature) != "" || !s.opts.AllowAnonymous:
		return "", buf, fmt.Errorf("%w: this route takes a session MAC; certificate signatures are accepted on POST /v2/session only", api.ErrUnauthenticated)
	}
	body = buf
	if rt.withBody != nil {
		if body, err = api.ReadBody(buf, r); err != nil {
			return "", body, &api.WireError{Code: api.CodeBadRequest, Message: "bad request body: " + err.Error()}
		}
	}
	if subject = h.Get(api.HeaderSubject); subject == "" {
		subject = "anonymous"
	}
	return subject, body, nil
}

// authorize runs the RBAC check non-deploy operations need (deploys
// carry their own check inside the pipeline). Namespace "" means
// cluster-scoped.
func (s *Server) authorize(subject, verb, resource, namespace string) error {
	if !s.p.Config.RBACEnabled {
		return nil
	}
	d := s.p.RBAC.Check(subject, rbac.Permission{Verb: verb, Resource: resource, Namespace: namespace})
	if !d.Allowed {
		return &orchestrator.UnauthorizedError{Subject: subject, Verb: verb, Tenant: resource}
	}
	return nil
}

// bufPool recycles the buffers request bodies are read into and
// responses are encoded into; maxPooledBuf keeps a one-off giant body
// or response (a huge nodes table) from pinning its buffer forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBuf = 1 << 20

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// writeJSON encodes v with the wire codec (api.AppendWire), which
// writes json.Encoder's bytes for every value.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := bufPool.Get().(*[]byte)
	out, err := api.AppendWire((*bp)[:0], v)
	defer putBuf(bp, out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

func writeWireError(w http.ResponseWriter, we *api.WireError) {
	writeJSON(w, we.Status(), we)
}

func writeError(w http.ResponseWriter, err error) {
	writeWireError(w, api.Encode(err))
}

// decoded reports whether a request body decoded; a body that did not
// is answered with bad-request.
func decoded(w http.ResponseWriter, err error) bool {
	if err != nil {
		writeWireError(w, &api.WireError{Code: api.CodeBadRequest, Message: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// handleHealthz reports liveness — always 200, so probes don't
// restart-loop the daemon — but a failed persistence store degrades the
// body: operators (and readiness checks keying on the status field)
// must see that the control plane is running non-durable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ string) {
	if err := s.p.StoreErr(); err != nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "degraded", "persist": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleDeploy runs a synchronous deploy on the request context: a
// client that disconnects mid-pipeline cancels the deployment, and the
// platform rolls it back (cancelled-never-placed).
func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request, subject string, body []byte) {
	var req api.DeployRequest
	if !decoded(w, api.UnmarshalWire(body, &req)) {
		return
	}
	spec, err := req.Spec.ToOrchestrator()
	if err != nil {
		writeError(w, err)
		return
	}
	wl, err := s.p.DeployContext(r.Context(), subject, spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.FromWorkload(wl))
}

// handleSession is the Ed25519→HMAC handshake: authenticate has already
// verified the request's certificate signature (the one route where
// that is the credential), and the response trades that proof for a
// short-lived symmetric session bound to the certificate's subject.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request, subject string) {
	grant, err := s.verifier.IssueSession(subject)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, grant)
}

// maxBatchSpecs bounds one batch request; the signed-body limit bounds
// bytes, this bounds the work one request can queue.
const maxBatchSpecs = 1024

// handleDeployBatch admits N specs from one signed request through the
// platform's in-process batch worker loop. Results are positional, each
// carrying either the placed workload or the full typed wire error —
// the HTTP status only reports transport/decode outcome. Runs on the
// request context: a client disconnect cancels every in-flight element
// (already-placed ones stay placed), same as the single-deploy path.
func (s *Server) handleDeployBatch(w http.ResponseWriter, r *http.Request, subject string, body []byte) {
	var req api.DeployBatchRequest
	if !decoded(w, api.UnmarshalWire(body, &req)) {
		return
	}
	if len(req.Specs) == 0 {
		writeWireError(w, &api.WireError{Code: api.CodeBadRequest, Message: "empty batch"})
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		writeWireError(w, &api.WireError{Code: api.CodeBadRequest,
			Message: fmt.Sprintf("batch of %d exceeds %d-spec limit", len(req.Specs), maxBatchSpecs)})
		return
	}
	results := make([]api.DeployBatchResult, len(req.Specs))
	specs := make([]orchestrator.WorkloadSpec, 0, len(req.Specs))
	indices := make([]int, 0, len(req.Specs))
	for i, ws := range req.Specs {
		spec, err := ws.ToOrchestrator()
		if err != nil {
			results[i].Error = api.Encode(err)
			continue
		}
		specs = append(specs, spec)
		indices = append(indices, i)
	}
	if len(specs) > 0 {
		wls, errs := s.p.DeployBatchContext(r.Context(), subject, specs)
		for j, i := range indices {
			if errs[j] != nil {
				results[i].Error = api.Encode(errs[j])
			} else {
				results[i].Workload = api.FromWorkload(wls[j])
			}
		}
	}
	writeJSON(w, http.StatusOK, &api.DeployBatchResponse{Results: results})
}

// handleDeployAsync launches a deployment future and returns its ID
// plus poll/await endpoints. The future runs on a server-side context,
// not the request's: it outlives this POST by design and is cancelled
// via DELETE or server shutdown.
func (s *Server) handleDeployAsync(w http.ResponseWriter, r *http.Request, subject string, body []byte) {
	var req api.DeployRequest
	if !decoded(w, api.UnmarshalWire(body, &req)) {
		return
	}
	spec, err := req.Spec.ToOrchestrator()
	if err != nil {
		writeError(w, err)
		return
	}
	if spec.CheckDemand() != nil {
		// Answered now, as on the sync route, not by a future: the
		// pipeline refuses a negative demand before any stage runs, and
		// counts and audits the rejection.
		_, err := s.p.DeployContext(r.Context(), subject, spec)
		writeError(w, err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, &core.ClosedError{Op: "deploy"})
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	d, err := s.p.DeployAsync(context.Background(), subject, spec)
	if err != nil {
		s.inflight.Done()
		writeError(w, err)
		return
	}
	id := newDeploymentID()
	s.mu.Lock()
	s.deployments[id] = &asyncDeployment{d: d, owner: subject}
	s.mu.Unlock()
	go func() {
		defer s.inflight.Done()
		<-d.Done()
		s.retire(id)
	}()
	writeJSON(w, http.StatusAccepted, api.DeploymentRef{
		ID:    id,
		Poll:  "/v2/deployments/" + id,
		Await: "/v2/deployments/" + id + "/await",
	})
}

// newDeploymentID mints an unguessable deployment id: knowing your own
// ids must not let you address anyone else's.
func newDeploymentID() string {
	var raw [12]byte
	if _, err := rand.Read(raw[:]); err != nil {
		// crypto/rand never fails on supported platforms; refusing to
		// mint a weaker id is the safe degradation.
		panic(fmt.Sprintf("server: deployment id: %v", err))
	}
	return "d-" + hex.EncodeToString(raw[:])
}

// retire records a deployment as terminal and evicts the oldest
// terminal entries beyond the retention cap, keeping the registry
// bounded on long-running daemons. The first call for an id counts,
// later ones are no-ops. Each deployment's watcher goroutine calls it,
// but goroutines wake in scheduling order, not settle order, so every
// reply that reports a terminal state retires the deployment before it
// is written: a client that saw d0 settle before d1 never finds d0
// outliving d1.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.deployments[id]
	if !ok || e.retired {
		return
	}
	e.retired = true
	s.terminal = append(s.terminal, id)
	for len(s.terminal) > s.retention {
		delete(s.deployments, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

// deployment resolves the path's deployment id and enforces access: the
// creating subject manages its own deployments; anyone else needs the
// RBAC permission for the deployment's tenant.
func (s *Server) deployment(w http.ResponseWriter, r *http.Request, subject, verb string) (*core.Deployment, string, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.deployments[id]
	s.mu.Unlock()
	if e == nil {
		writeWireError(w, &api.WireError{Code: api.CodeBadRequest, Message: "unknown deployment " + id})
		return nil, id, false
	}
	if e.owner != subject {
		if err := s.authorize(subject, verb, "deployments", e.d.Spec().Tenant); err != nil {
			writeError(w, err)
			return nil, id, false
		}
	}
	return e.d, id, true
}

// status snapshots a deployment future into its wire form, retiring a
// terminal one first (see retire).
func (s *Server) status(id string, d *core.Deployment) api.DeploymentStatus {
	st := api.DeploymentStatus{
		ID:       id,
		Workload: d.Spec().Name,
		Tenant:   d.Spec().Tenant,
		State:    string(d.State()),
	}
	if core.DeployState(st.State).Terminal() {
		s.retire(id)
		wl, err := d.Result()
		st.Placed = api.FromWorkload(wl)
		st.Error = api.Encode(err)
	}
	return st
}

func (s *Server) handleDeploymentStatus(w http.ResponseWriter, r *http.Request, subject string) {
	d, id, ok := s.deployment(w, r, subject, "get")
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.status(id, d))
}

// handleDeploymentAwait long-polls the future: it responds when the
// deployment reaches a terminal state or the request context dies.
func (s *Server) handleDeploymentAwait(w http.ResponseWriter, r *http.Request, subject string) {
	d, id, ok := s.deployment(w, r, subject, "get")
	if !ok {
		return
	}
	select {
	case <-d.Done():
		writeJSON(w, http.StatusOK, s.status(id, d))
	case <-r.Context().Done():
		// Client gave up; the deployment itself keeps running.
	}
}

// handleDeploymentCancel cancels the future. The response reports the
// state after the cancel took effect (the pipeline stops at its next
// cancellation point, so the terminal state lands asynchronously).
func (s *Server) handleDeploymentCancel(w http.ResponseWriter, r *http.Request, subject string) {
	d, id, ok := s.deployment(w, r, subject, "delete")
	if !ok {
		return
	}
	d.Cancel()
	writeJSON(w, http.StatusAccepted, s.status(id, d))
}

// eventLog lazily starts the SSE replay log; the first watch request
// pays the one platform-wide subscription, every later watch shares it
// (and its id sequence, which Last-Event-ID resume depends on).
func (s *Server) eventLog() (*eventLog, error) {
	s.eventsOnce.Do(func() {
		s.events, s.eventsErr = newEventLog(s.ctx, s.p)
	})
	return s.events, s.eventsErr
}

// handleWatch streams deploy.lifecycle transitions as server-sent
// events, filtered by the selector in the query string (tenant,
// workload, terminal=true). Every event carries an `id:` field; a
// reconnecting client that presents Last-Event-ID receives the
// retained events after that id (at most watchReplay of them — older
// events are lost and the resume continues from what remains)
// before going live. The stream runs until the client disconnects or
// the platform closes.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "watch", "deployments", r.URL.Query().Get("tenant")); err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeWireError(w, &api.WireError{Code: api.CodeInternal, Message: "streaming unsupported"})
		return
	}
	q := r.URL.Query()
	sel := api.WatchSelector{
		Tenant:       q.Get("tenant"),
		Workload:     q.Get("workload"),
		TerminalOnly: q.Get("terminal") == "true",
	}
	log, err := s.eventLog()
	if err != nil {
		writeError(w, err)
		return
	}
	// No Last-Event-ID means a fresh watch: live events only, exactly
	// like a first connection.
	afterID := log.latest()
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		// A resume the server cannot honour must not degrade to a fresh
		// watch: the client would silently lose every event it missed.
		if afterID, err = strconv.ParseUint(raw, 10, 64); err != nil {
			writeWireError(w, &api.WireError{Code: api.CodeBadRequest, Message: "bad Last-Event-ID: " + err.Error()})
			return
		}
	}
	replay, sub := log.subscribe(afterID)
	defer sub.cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	// Frames are rendered once at append time (see loggedEvent); every
	// subscriber writes the same shared bytes, so this loop does zero
	// marshalling no matter how many watchers are connected. One loop
	// serves replay and live: each pass writes every matching frame of
	// what was already queued and flushes once, so a burst costs one
	// flush, and no frame ever waits for a later one.
	for pending, ok := replay, true; ok; pending, ok = sub.next(r.Context()) {
		wrote := false
		for _, le := range pending {
			if !sel.Matches(le.ev) {
				continue
			}
			if _, err := w.Write(le.frame); err != nil {
				return
			}
			wrote = true
		}
		if wrote {
			flusher.Flush()
		}
	}
}

// clusterRef is one placement domain a fleet read iterates: the cluster
// plus the label its rows carry on the wire (empty on single-cluster
// servers, so pre-federation output is byte-identical).
type clusterRef struct {
	label string
	c     *orchestrator.Cluster
}

// clusterSelection resolves the ?cluster= query parameter: "" means
// every placement domain (all federation members, or the single default
// cluster), a name selects one member.
func (s *Server) clusterSelection(name string) ([]clusterRef, error) {
	if s.p.Federation == nil {
		if name != "" && name != s.p.Cluster.Name {
			return nil, &federation.ClusterNotFoundError{Cluster: name}
		}
		return []clusterRef{{c: s.p.Cluster}}, nil
	}
	if name != "" {
		c, err := s.p.ClusterByName(name)
		if err != nil {
			return nil, err
		}
		return []clusterRef{{label: c.Name, c: c}}, nil
	}
	members := s.p.Federation.Clusters()
	out := make([]clusterRef, 0, len(members))
	for _, m := range members {
		if c, ok := s.p.Federation.Cluster(m.Name); ok {
			out = append(out, clusterRef{label: m.Name, c: c})
		}
	}
	return out, nil
}

// handleNodes returns the fleet table. Query params probeCpu/probeMem
// add the scheduler's per-strategy explanation for that demand — the
// wire form of `genioctl nodes -top`. ?cluster= narrows a federated
// fleet to one member; the default is every member, each row labeled
// with its cluster.
func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "get", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	clusters, err := s.clusterSelection(q.Get("cluster"))
	if err != nil {
		writeError(w, err)
		return
	}
	probing := q.Get("probeCpu") != "" || q.Get("probeMem") != ""
	cpu, cpuErr := probeDemand(q, "probeCpu")
	mem, memErr := probeDemand(q, "probeMem")
	if err := errors.Join(cpuErr, memErr); err != nil {
		writeWireError(w, &api.WireError{Code: api.CodeBadRequest, Message: err.Error()})
		return
	}
	var out []api.NodeStatus
	for _, cl := range clusters {
		util := cl.c.Utilization()
		rows := make([]api.NodeStatus, 0, len(util))
		for _, u := range util {
			ns := api.FromUtilization(u)
			ns.Cluster = cl.label
			rows = append(rows, ns)
		}
		if probing {
			cands := make([]scheduler.Candidate, 0, len(util))
			for _, u := range util {
				cands = append(cands, scheduler.Candidate{
					Node: u.Node, Capacity: u.Capacity, Used: u.Used,
					Cordoned: u.Cordoned, SharedVMs: u.SharedVMs,
				})
			}
			probe := scheduler.Request{Workload: "probe", Tenant: "probe",
				Demand: orchestrator.Resources{CPUMilli: cpu, MemoryMB: mem}}
			var eng scheduler.Engine
			probe.Strategy = scheduler.StrategyBinpack
			binpack := eng.Explain(&probe, cands)
			probe.Strategy = scheduler.StrategySpread
			spread := eng.Explain(&probe, cands)
			for i := range rows {
				if binpack[i].Feasible {
					v := binpack[i].Score
					rows[i].Binpack = &v
				}
				if spread[i].Feasible {
					v := spread[i].Score
					rows[i].Spread = &v
				}
			}
		}
		out = append(out, rows...)
	}
	if out == nil {
		out = []api.NodeStatus{}
	}
	writeJSON(w, http.StatusOK, out)
}

// probeDemand parses one optional probe parameter: absent is 0, anything
// but a non-negative integer is the caller's error.
func probeDemand(q url.Values, key string) (int, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", key, raw)
	}
	return v, nil
}

func (s *Server) handleAddNode(w http.ResponseWriter, r *http.Request, subject string, body []byte) {
	if err := s.authorize(subject, "create", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	var req api.AddNodeRequest
	if !decoded(w, api.UnmarshalWire(body, &req)) {
		return
	}
	if req.Name == "" {
		writeWireError(w, &api.WireError{Code: api.CodeBadRequest, Message: "node name required"})
		return
	}
	if _, err := s.p.AddEdgeNodeInContext(r.Context(), req.Cluster, req.Name, orchestrator.Resources{
		CPUMilli: req.Capacity.CPUMilli, MemoryMB: req.Capacity.MemoryMB,
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.NodeStatus{
		Node:     req.Name,
		Cluster:  req.Cluster,
		Capacity: req.Capacity,
	})
}

func (s *Server) handleCordon(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "update", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	if err := s.p.Cordon(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"node": r.PathValue("name"), "state": "cordoned"})
}

func (s *Server) handleUncordon(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "update", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	if err := s.p.Uncordon(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"node": r.PathValue("name"), "state": "ready"})
}

// handleDrain live-migrates the node's workloads on the request
// context: a client disconnect (or timeout) cancels the drain at the
// next migration boundary and the platform rolls the cordon back.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "update", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	var migrations []api.Migration
	res, err := s.p.DrainObserved(r.Context(), r.PathValue("name"), func(ev orchestrator.DrainEvent) {
		if ev.Phase == orchestrator.DrainMigrated {
			migrations = append(migrations, api.Migration{
				Workload: ev.Workload, Target: ev.Target, Score: ev.Score,
			})
		}
	})
	if res == nil {
		// Refused outright (unknown node, platform closed): no drain ever
		// started, so there is no partial progress to report.
		writeError(w, err)
		return
	}
	out := api.FromDrainResult(res)
	out.Migrations = migrations
	// A drain that stopped early (cancelled, blocked) still made
	// progress; ship the partial result with the typed error inside it
	// rather than discarding one half.
	out.Error = api.Encode(err)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "update", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.p.FailNode(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.FromFailoverResult(res))
}

func (s *Server) handleAttachONU(w http.ResponseWriter, r *http.Request, subject string, body []byte) {
	if err := s.authorize(subject, "create", "onus", ""); err != nil {
		writeError(w, err)
		return
	}
	var req api.AttachONURequest
	if !decoded(w, api.UnmarshalWire(body, &req)) {
		return
	}
	if _, err := s.p.AttachONUContext(r.Context(), r.PathValue("name"), req.Serial); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"node": r.PathValue("name"), "serial": req.Serial})
}

func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "get", "incidents", ""); err != nil {
		writeError(w, err)
		return
	}
	counts := s.p.IncidentCounts()
	if counts == nil {
		counts = map[string]int{}
	}
	writeJSON(w, http.StatusOK, api.IncidentCounts(counts))
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "get", "events", ""); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.FromStats(s.p.Metrics()))
}

// handleClusters lists the placement domains — federation members, or
// the synthesized single entry of a plain server.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "get", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	members := s.p.Clusters()
	out := make([]api.ClusterInfo, 0, len(members))
	for _, m := range members {
		out = append(out, api.FromMember(m))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleEvacuate re-places a failed federation member's workloads
// across the survivors and removes it from the federation. The acting
// subject rides into the re-placement pipeline, so per-workload RBAC
// and audit attribution stay exact.
func (s *Server) handleEvacuate(w http.ResponseWriter, r *http.Request, subject string) {
	if err := s.authorize(subject, "update", "nodes", ""); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.p.EvacuateCluster(subject, r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.FromEvacuation(res))
}

// Drain stops accepting new async deployments and waits for the
// in-flight ones to reach a terminal state, or for ctx to die —
// whichever comes first. Part of the graceful-shutdown sequence; the
// HTTP listener should already be closed (http.Server.Shutdown) so no
// new sync deploys arrive either.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server drain: %w", ctx.Err())
	}
}

// ServeLoopback serves the v2 surface on an ephemeral 127.0.0.1 port:
// how an in-process host (daemon-less genioctl, the simulator's wire
// world) puts its platform behind the real wire path. It returns the
// base URL and a stop func that releases the server (Close), closes the
// listener with every open connection, and waits for the accept loop to
// exit. stop is idempotent and, like Close, leaves the platform alone.
func (s *Server) ServeLoopback() (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("server: loopback listener: %w", err)
	}
	hs := &http.Server{Handler: s.mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns only once stop closes hs
	}()
	return "http://" + ln.Addr().String(), func() {
		s.Close()
		_ = hs.Close()
		<-done
	}, nil
}

// Close releases server-held resources — today the watch feeder
// goroutine and its platform-side subscription — WITHOUT touching the
// platform, which the server does not own. Idempotent; use it when a
// server is discarded while its platform lives on (tests, the
// simulator, embedded hosts). Shutdown calls it.
func (s *Server) Close() { s.cancel() }

// Shutdown completes the graceful sequence after the listener has
// stopped accepting: drain in-flight deployments, flush the spine,
// release server resources, close the platform. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Drain(ctx)
	if err == nil {
		s.p.Flush()
	}
	s.Close()
	s.p.Close()
	return err
}
