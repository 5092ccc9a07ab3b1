package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"genio/api"
	"genio/internal/pki"
)

// HTTP is the remote client: it speaks the v2 wire surface to a geniod
// server as its PKI identity (or under an anonymous subject header
// against a legacy-posture server).
//
// With an identity configured, the client proves it once — POST
// /v2/session, Ed25519-signed, on first use — and MACs every request
// with the granted session secret, re-running the handshake when the
// session expires or the server no longer knows it. There is no other
// mode: a handshake that fails fails the request it was for, with the
// transport error or the server's typed refusal.
type HTTP struct {
	base     string
	client   *http.Client
	identity *pki.Identity
	subject  string

	// Session state. sessMu serializes re-keying: one goroutine runs
	// the handshake while concurrent requests wait for the fresh
	// session instead of stampeding the endpoint.
	sessMu sync.Mutex
	sess   *api.Session

	// backoff bounds for stream/await reconnection.
	backoffMin time.Duration
	backoffMax time.Duration

	// streamErr, when set, receives the terminal error that ended a
	// watch stream's reconnect loop (e.g. 401 after cert revocation).
	streamErr func(error)
}

var _ Interface = (*HTTP)(nil)

// HTTPOption configures the HTTP client.
type HTTPOption func(*HTTP)

// WithIdentity authenticates the client with a PKI identity: it signs
// the session handshake, and the session MACs everything else.
func WithIdentity(id *pki.Identity) HTTPOption {
	return func(c *HTTP) { c.identity = id }
}

// WithSubject sets the anonymous subject header used when no identity
// is configured (only honoured by servers running AllowAnonymous).
func WithSubject(subject string) HTTPOption {
	return func(c *HTTP) { c.subject = subject }
}

// WithHTTPClient swaps the underlying http.Client (timeouts, custom
// transports, test servers).
func WithHTTPClient(hc *http.Client) HTTPOption {
	return func(c *HTTP) { c.client = hc }
}

// WithBackoff bounds the reconnect backoff for watch streams and await
// long-polls.
func WithBackoff(min, max time.Duration) HTTPOption {
	return func(c *HTTP) { c.backoffMin, c.backoffMax = min, max }
}

// WithStreamErrorHandler registers a callback for the terminal error
// that ends a watch stream: reconnects retry transport failures
// forever, but a control-plane refusal (unauthenticated after cert
// revocation, RBAC change, platform closed) is permanent — the stream
// channel closes and the handler, when set, receives the decoded typed
// error. Without a handler the channel still closes; the error is just
// not observable.
func WithStreamErrorHandler(fn func(error)) HTTPOption {
	return func(c *HTTP) { c.streamErr = fn }
}

// newTransport is the default wire transport, tuned for deploy storms:
// a storm fans dozens of concurrent requests at ONE host, and the
// stock Transport's 2 idle conns per host would close and re-dial
// almost every connection between bursts.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		// Control-plane payloads are small JSON; geniod never gzips
		// them, so skip the Accept-Encoding negotiation and the
		// per-response decompression bookkeeping.
		DisableCompression: true,
	}
}

// NewHTTP builds a remote client for a geniod base URL, e.g.
// "http://127.0.0.1:9650".
func NewHTTP(base string, opts ...HTTPOption) *HTTP {
	c := &HTTP{
		base:       strings.TrimRight(base, "/"),
		client:     &http.Client{Transport: newTransport()},
		backoffMin: 50 * time.Millisecond,
		backoffMax: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// reqBufPool recycles request-body encode buffers; maxPooledReqBuf
// keeps a one-off giant batch from pinning its buffer forever.
var reqBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledReqBuf = 1 << 20

// newRequest builds and authenticates one request. The returned
// release func recycles the body's encode buffer and must be called
// after the request has been fully sent (i.e. once client.Do returns);
// it is never nil.
func (c *HTTP) newRequest(ctx context.Context, method, path string, query url.Values, body any) (*http.Request, func(), error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	release := func() {}
	var rd io.Reader
	if body != nil {
		buf := reqBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			reqBufPool.Put(buf)
			return nil, nil, fmt.Errorf("client: marshal request: %w", err)
		}
		rd = bytes.NewReader(buf.Bytes())
		release = func() {
			if buf.Cap() <= maxPooledReqBuf {
				reqBufPool.Put(buf)
			}
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		release()
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.identity != nil {
		s, err := c.session(ctx)
		if err == nil {
			err = api.SignRequestSession(req, s)
		}
		if err != nil {
			release()
			return nil, nil, err
		}
	} else if c.subject != "" {
		req.Header.Set(api.HeaderSubject, c.subject)
	}
	return req, release, nil
}

// session returns a live session, running the Ed25519 handshake if
// none is held. A handshake that fails on the wire returns the
// transport error unchanged, so reconnect loops still see a restarting
// daemon as retryable; one the server refuses (revoked or foreign
// certificate) returns the decoded typed error. Either way the request
// the session was for is not sent.
func (c *HTTP) session(ctx context.Context) (*api.Session, error) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	// Refresh slightly early so a request signed now does not land
	// after server-side expiry mid-flight.
	if c.sess != nil && time.Now().Add(2*time.Second).Before(c.sess.ExpiresAt) {
		return c.sess, nil
	}
	c.sess = nil
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/session", nil)
	if err != nil {
		return nil, err
	}
	if err := api.SignRequest(req, c.identity); err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var grant api.SessionGrant
	if err := decodeBody(resp.Body, &grant); err != nil {
		return nil, fmt.Errorf("client: session grant: %w", err)
	}
	c.sess = grant.Session()
	return c.sess, nil
}

// invalidateSession drops the held session (the server no longer knows
// it — expiry, restart, eviction); the next request re-keys.
func (c *HTTP) invalidateSession() {
	c.sessMu.Lock()
	c.sess = nil
	c.sessMu.Unlock()
}

// isSessionExpired recognizes the server's recoverable 401: re-key and
// retry rather than surfacing an auth failure.
func isSessionExpired(err error) bool {
	var we *api.WireError
	return errors.As(err, &we) && we.Code == api.CodeSessionExpired
}

// decodeError turns a non-2xx response into the library's typed error.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var we api.WireError
	if err := json.Unmarshal(data, &we); err != nil || we.Code == "" {
		return fmt.Errorf("client: server returned %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return api.Decode(&we)
}

// do sends one request and decodes the JSON response into out (skipped
// when out is nil). A session-expired 401 re-keys and retries once —
// transparent to callers, since the request never reached its handler.
func (c *HTTP) do(ctx context.Context, method, path string, query url.Values, body, out any) error {
	for attempt := 0; ; attempt++ {
		req, release, err := c.newRequest(ctx, method, path, query, body)
		if err != nil {
			return err
		}
		resp, err := c.client.Do(req)
		release()
		if err != nil {
			return err
		}
		if resp.StatusCode >= 400 {
			derr := decodeError(resp)
			if attempt == 0 && isSessionExpired(derr) {
				c.invalidateSession()
				continue
			}
			return derr
		}
		defer resp.Body.Close()
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
		return decodeBody(resp.Body, out)
	}
}

// decodeBody reads a response body through a pooled buffer and
// unmarshals it — a json.Decoder per response would allocate its own
// internal read buffer every call.
func decodeBody(body io.Reader, out any) error {
	buf := reqBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		reqBufPool.Put(buf)
		return err
	}
	err := json.Unmarshal(buf.Bytes(), out)
	if buf.Cap() <= maxPooledReqBuf {
		reqBufPool.Put(buf)
	}
	return err
}

func (c *HTTP) Deploy(ctx context.Context, spec api.WorkloadSpec) (*api.Workload, error) {
	var wl api.Workload
	if err := c.do(ctx, http.MethodPost, "/v2/deployments", nil, api.DeployRequest{Spec: spec}, &wl); err != nil {
		return nil, err
	}
	return &wl, nil
}

func (c *HTTP) DeployAsync(ctx context.Context, spec api.WorkloadSpec) (Deployment, error) {
	var ref api.DeploymentRef
	if err := c.do(ctx, http.MethodPost, "/v2/deployments/async", nil, api.DeployRequest{Spec: spec}, &ref); err != nil {
		return nil, err
	}
	return &httpDeployment{c: c, ref: ref}, nil
}

// DeployBatch ships every spec in ONE signed request to
// /v2/deploy/batch — amortizing auth, connection, and codec cost
// across the whole storm — and decodes the positional results back to
// the typed taxonomy.
func (c *HTTP) DeployBatch(ctx context.Context, specs []api.WorkloadSpec) ([]BatchResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	var resp api.DeployBatchResponse
	if err := c.do(ctx, http.MethodPost, "/v2/deploy/batch", nil, api.DeployBatchRequest{Specs: specs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("client: batch returned %d results for %d specs", len(resp.Results), len(specs))
	}
	out := make([]BatchResult, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = BatchResult{Workload: r.Workload, Err: api.Decode(r.Error)}
	}
	return out, nil
}

// Deployment rebuilds a handle for a known deployment ID (learned
// out-of-band, e.g. from another process's DeployAsync). The server
// still decides whether this client's subject may use it.
func (c *HTTP) Deployment(id string) Deployment {
	return &httpDeployment{c: c, ref: api.DeploymentRef{
		ID:    id,
		Poll:  "/v2/deployments/" + id,
		Await: "/v2/deployments/" + id + "/await",
	}}
}

// httpDeployment is the remote future handle.
type httpDeployment struct {
	c   *HTTP
	ref api.DeploymentRef
}

func (d *httpDeployment) ID() string { return d.ref.ID }

func (d *httpDeployment) Status(ctx context.Context) (api.DeploymentStatus, error) {
	var st api.DeploymentStatus
	err := d.c.do(ctx, http.MethodGet, d.ref.Poll, nil, nil, &st)
	return st, err
}

// Await long-polls the await endpoint. Transport failures retry with
// backoff — the deployment keeps running server-side, so reconnecting
// and re-awaiting is always safe.
func (d *httpDeployment) Await(ctx context.Context) (*api.Workload, error) {
	backoff := d.c.backoffMin
	for {
		var st api.DeploymentStatus
		err := d.c.do(ctx, http.MethodGet, d.ref.Await, nil, nil, &st)
		if err == nil {
			return st.Placed, api.Decode(st.Error)
		}
		// Typed control-plane errors (and dead contexts) are final;
		// only transport-level failures retry.
		var we *api.WireError
		if ctx.Err() != nil || errors.As(err, &we) || !isTransportError(err) {
			return nil, err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > d.c.backoffMax {
			backoff = d.c.backoffMax
		}
	}
}

func (d *httpDeployment) Cancel(ctx context.Context) error {
	return d.c.do(ctx, http.MethodDelete, d.ref.Poll, nil, nil, nil)
}

// isTransportError reports whether the failure happened on the wire
// (connection refused/reset, stream killed) rather than in the
// control plane.
func isTransportError(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// Watch streams lifecycle events over SSE. A dropped stream reconnects
// with exponential backoff (reset after the first event of a healthy
// connection), reapplying the same selector and presenting the last
// seen event id as Last-Event-ID so the server replays what was
// published while disconnected (bounded by its replay buffer). Only
// transport failures reconnect: a control-plane refusal on reconnect
// is permanent — the channel closes and the error goes to the
// WithStreamErrorHandler callback, if any.
func (c *HTTP) Watch(ctx context.Context, sel api.WatchSelector) (<-chan api.LifecycleEvent, error) {
	query := url.Values{}
	if sel.Tenant != "" {
		query.Set("tenant", sel.Tenant)
	}
	if sel.Workload != "" {
		query.Set("workload", sel.Workload)
	}
	if sel.TerminalOnly {
		query.Set("terminal", "true")
	}
	// Establish the first connection synchronously so selector typos and
	// auth failures surface as errors, not silent empty streams.
	resp, err := c.openStream(ctx, query, 0)
	if err != nil {
		return nil, err
	}
	out := make(chan api.LifecycleEvent)
	go func() {
		defer close(out)
		backoff := c.backoffMin
		var lastID uint64
		for {
			healthy := c.pumpStream(ctx, resp, out, &lastID)
			if ctx.Err() != nil {
				return
			}
			if healthy {
				backoff = c.backoffMin
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return
			}
			if backoff *= 2; backoff > c.backoffMax {
				backoff = c.backoffMax
			}
			resp, err = c.openStream(ctx, query, lastID)
			if err != nil {
				resp = nil
				if ctx.Err() == nil && !isTransportError(err) {
					// The control plane refused the reconnect (revoked
					// cert, RBAC change, shutdown): retrying cannot
					// succeed. End the stream rather than spin silently.
					if c.streamErr != nil {
						c.streamErr(err)
					}
					return
				}
				continue
			}
		}
	}()
	return out, nil
}

func (c *HTTP) openStream(ctx context.Context, query url.Values, lastID uint64) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, release, err := c.newRequest(ctx, http.MethodGet, "/v2/watch", query, nil)
		if err != nil {
			return nil, err
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
		}
		resp, err := c.client.Do(req)
		release()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			derr := decodeError(resp)
			if attempt == 0 && isSessionExpired(derr) {
				c.invalidateSession()
				continue
			}
			return nil, derr
		}
		return resp, nil
	}
}

// pumpStream forwards one connection's events, tracking the server's
// `id:` fields in lastID for resume; it returns true when at least one
// event arrived (a healthy stream, resetting the backoff).
func (c *HTTP) pumpStream(ctx context.Context, resp *http.Response, out chan<- api.LifecycleEvent, lastID *uint64) bool {
	if resp == nil {
		return false
	}
	defer resp.Body.Close()
	delivered := false
	var pendingID uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			pendingID, _ = strconv.ParseUint(id, 10, 64)
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.LifecycleEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		select {
		case out <- ev:
			delivered = true
			if pendingID > 0 {
				*lastID = pendingID
			}
		case <-ctx.Done():
			return delivered
		}
	}
	return delivered
}

func (c *HTTP) AddNode(ctx context.Context, cluster, name string, capacity api.Resources) error {
	return c.do(ctx, http.MethodPost, "/v2/nodes", nil, api.AddNodeRequest{Name: name, Cluster: cluster, Capacity: capacity}, nil)
}

func (c *HTTP) Nodes(ctx context.Context, probe *api.Resources, cluster string) ([]api.NodeStatus, error) {
	query := url.Values{}
	if probe != nil {
		query.Set("probeCpu", strconv.Itoa(probe.CPUMilli))
		query.Set("probeMem", strconv.Itoa(probe.MemoryMB))
	}
	if cluster != "" {
		query.Set("cluster", cluster)
	}
	var out []api.NodeStatus
	if err := c.do(ctx, http.MethodGet, "/v2/nodes", query, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *HTTP) Cordon(ctx context.Context, node string) error {
	return c.do(ctx, http.MethodPost, "/v2/nodes/"+url.PathEscape(node)+"/cordon", nil, nil, nil)
}

func (c *HTTP) Uncordon(ctx context.Context, node string) error {
	return c.do(ctx, http.MethodPost, "/v2/nodes/"+url.PathEscape(node)+"/uncordon", nil, nil, nil)
}

func (c *HTTP) Drain(ctx context.Context, node string) (*api.DrainResult, error) {
	var res api.DrainResult
	if err := c.do(ctx, http.MethodPost, "/v2/nodes/"+url.PathEscape(node)+"/drain", nil, nil, &res); err != nil {
		return nil, err
	}
	// A drain that stopped early ships its partial progress with the
	// typed error embedded; surface both halves.
	return &res, api.Decode(res.Error)
}

func (c *HTTP) FailNode(ctx context.Context, node string) (*api.FailoverResult, error) {
	var res api.FailoverResult
	if err := c.do(ctx, http.MethodPost, "/v2/nodes/"+url.PathEscape(node)+"/fail", nil, nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (c *HTTP) AttachONU(ctx context.Context, node, serial string) error {
	return c.do(ctx, http.MethodPost, "/v2/nodes/"+url.PathEscape(node)+"/onus", nil, api.AttachONURequest{Serial: serial}, nil)
}

func (c *HTTP) Incidents(ctx context.Context) (api.IncidentCounts, error) {
	var out api.IncidentCounts
	if err := c.do(ctx, http.MethodGet, "/v2/incidents", nil, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *HTTP) Ledger(ctx context.Context) (api.Ledger, error) {
	var out api.Ledger
	if err := c.do(ctx, http.MethodGet, "/v2/ledger", nil, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *HTTP) Slots(ctx context.Context, cluster string) (api.SlotsReport, error) {
	query := url.Values{}
	if cluster != "" {
		query.Set("cluster", cluster)
	}
	var out api.SlotsReport
	err := c.do(ctx, http.MethodGet, "/v2/slots", query, nil, &out)
	return out, err
}

func (c *HTTP) Clusters(ctx context.Context) ([]api.ClusterInfo, error) {
	var out []api.ClusterInfo
	if err := c.do(ctx, http.MethodGet, "/v2/clusters", nil, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *HTTP) Evacuate(ctx context.Context, cluster string) (*api.EvacuationResult, error) {
	var out api.EvacuationResult
	if err := c.do(ctx, http.MethodPost, "/v2/clusters/"+url.PathEscape(cluster)+"/evacuate", nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close releases idle connections; the remote platform is unaffected.
func (c *HTTP) Close() error {
	c.client.CloseIdleConnections()
	return nil
}
