package storage

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/tracing"
)

// RetryPolicy controls how the client survives the failures the
// paper's mobile population lived with: flaky links, overloaded
// front-ends, interrupted transfers. The zero value means "use
// DefaultRetry". Every request gets its own deadline; failed attempts
// back off exponentially with jitter; a per-file-operation budget
// bounds the total retry work so a persistent outage fails fast
// instead of retrying forever.
type RetryPolicy struct {
	// MaxAttempts is the per-request attempt cap (first try included).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the fraction of the backoff randomized away (0..1):
	// the actual sleep is uniform in [d*(1-Jitter), d].
	Jitter float64
	// Budget caps the total retries spent on one file operation
	// (StoreFile/RetrieveFile), across all its requests.
	Budget int
	// RequestTimeout is the per-attempt deadline.
	RequestTimeout time.Duration
}

// DefaultRetry is the policy used when Client.Retry is nil.
var DefaultRetry = RetryPolicy{
	MaxAttempts:    4,
	BaseDelay:      25 * time.Millisecond,
	MaxDelay:       2 * time.Second,
	Multiplier:     2,
	Jitter:         0.5,
	Budget:         32,
	RequestTimeout: 30 * time.Second,
}

// NoRetry disables retries while keeping the per-request deadline —
// useful to observe raw failure behavior.
var NoRetry = RetryPolicy{
	MaxAttempts:    1,
	Budget:         0,
	RequestTimeout: 30 * time.Second,
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p = DefaultRetry
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetry.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetry.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultRetry.Multiplier
	}
	if p.RequestTimeout <= 0 {
		p.RequestTimeout = DefaultRetry.RequestTimeout
	}
	return p
}

// backoff returns the sleep before retry number n (1-based); u is a
// uniform [0,1) draw supplying the jitter.
func (p RetryPolicy) backoff(n int, u float64) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter*u
	}
	return time.Duration(d)
}

// retryBudget tracks the retries remaining for one file operation.
// Concurrent chunk requests of one operation share it, so the counter
// is atomic. It also carries the operation's context, which ends every
// attempt and backoff sleep of the operation, and its span (nil when
// the client is untraced or the trace was not sampled) so every
// request of the operation lands in one trace.
type retryBudget struct {
	remaining atomic.Int64
	ctx       context.Context
	span      *tracing.Span
}

// take spends one retry; a nil budget never runs out (the caller's
// attempt cap is the only bound).
func (b *retryBudget) take() bool {
	if b == nil {
		return true
	}
	for {
		v := b.remaining.Load()
		if v <= 0 {
			return false
		}
		if b.remaining.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// serverError is a non-2xx response decoded into an error; the status
// decides retryability.
type serverError struct {
	Status int
	Msg    string
}

func (e *serverError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("storage: server: %s (status %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("storage: server returned status %d", e.Status)
}

// corruptError marks a response whose payload failed verification
// (truncated or checksum-mismatched body); always worth a re-fetch.
type corruptError struct{ err error }

func (e *corruptError) Error() string { return "storage: corrupt response: " + e.err.Error() }
func (e *corruptError) Unwrap() error { return e.err }

// retryable classifies an attempt failure. Transport-level errors
// (resets, timeouts) and body corruption are transient by nature;
// server statuses are retryable for 5xx and 429 (overload), while
// other 4xx are the client's own fault and retrying cannot help.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		// The v1 envelope states retryability explicitly — the server
		// knows better than a status heuristic.
		return ae.Retryable
	}
	var se *serverError
	if errors.As(err, &se) {
		return se.Status >= 500 || se.Status == http.StatusTooManyRequests
	}
	var ce *corruptError
	if errors.As(err, &ce) {
		return true
	}
	// Everything else that reaches the retry loop is a transport or
	// body-read failure.
	return true
}

// parseRetryAfter reads a Retry-After header (seconds form), zero when
// absent or malformed.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// ClientMetrics aggregates the resilience counters across any number
// of Clients; all methods are safe on a nil receiver so the hot path
// needs no guards.
type ClientMetrics struct {
	retries      *metrics.Counter // retry attempts issued
	retrySuccess *metrics.Counter // requests that succeeded after >=1 retry
	giveups      *metrics.Counter // requests abandoned after exhausting retries
	resumes      *metrics.Counter // uploads resumed from the missing-chunk set
	refetches    *metrics.Counter // chunk downloads re-fetched after corruption
}

// NewClientMetrics registers the client resilience series:
//
//	mcs_client_retries_total        retry attempts issued
//	mcs_client_retry_success_total  requests recovered by retrying
//	mcs_client_giveups_total        requests abandoned after retries
//	mcs_client_resumes_total        uploads resumed mid-file
//	mcs_client_refetches_total      corrupted chunk downloads re-fetched
//	mcs_client_retry_success_ratio  recovered / retried requests
func NewClientMetrics(reg *metrics.Registry) *ClientMetrics {
	m := &ClientMetrics{
		retries:      reg.Counter("mcs_client_retries_total", "Retry attempts issued by resilient clients."),
		retrySuccess: reg.Counter("mcs_client_retry_success_total", "Requests that succeeded after at least one retry."),
		giveups:      reg.Counter("mcs_client_giveups_total", "Requests abandoned after exhausting retries or budget."),
		resumes:      reg.Counter("mcs_client_resumes_total", "Uploads resumed from the server's missing-chunk set."),
		refetches:    reg.Counter("mcs_client_refetches_total", "Chunk downloads re-fetched after checksum or read failures."),
	}
	reg.GaugeFunc("mcs_client_retry_success_ratio",
		"Fraction of retried requests that eventually succeeded.",
		func() float64 {
			r := m.retries.Value()
			if r == 0 {
				return 0
			}
			return float64(m.retrySuccess.Value()) / float64(r)
		})
	return m
}

// ClientRetryStats is a snapshot of the counters, for summaries.
type ClientRetryStats struct {
	Retries, RetrySuccess, GiveUps, Resumes, Refetches int64
}

// Stats returns the current counter values (zero on nil).
func (m *ClientMetrics) Stats() ClientRetryStats {
	if m == nil {
		return ClientRetryStats{}
	}
	return ClientRetryStats{
		Retries:      m.retries.Value(),
		RetrySuccess: m.retrySuccess.Value(),
		GiveUps:      m.giveups.Value(),
		Resumes:      m.resumes.Value(),
		Refetches:    m.refetches.Value(),
	}
}

func (m *ClientMetrics) retry() {
	if m != nil {
		m.retries.Inc()
	}
}
func (m *ClientMetrics) recovered() {
	if m != nil {
		m.retrySuccess.Inc()
	}
}
func (m *ClientMetrics) giveup() {
	if m != nil {
		m.giveups.Inc()
	}
}
func (m *ClientMetrics) resume() {
	if m != nil {
		m.resumes.Inc()
	}
}
func (m *ClientMetrics) refetch() {
	if m != nil {
		m.refetches.Inc()
	}
}

// defaultHTTPClient replaces the old http.DefaultClient fallback: a
// shared client with connection reuse sized for chunk traffic and a
// generous overall timeout as the last line of defense (per-request
// deadlines from the RetryPolicy fire first).
var defaultHTTPClient = &http.Client{
	Timeout: 2 * time.Minute,
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

// retryExec runs one logical request with retries: the single attempt
// loop behind every Client request and every RemoteMeta call. Each
// attempt gets its own deadline; failures the server or transport
// marks transient back off exponentially with deterministic jitter,
// stretched to any Retry-After hint and capped at MaxDelay, until the
// attempt cap or the operation's retry budget runs out. Once ctx ends,
// so does the request: the attempt in flight fails, and neither a
// retry nor a backoff sleep follows.
//
// Each attempt is a span (comp/name, child of parent, annotated with
// the attempt number and the fault observed on failure) whose trace
// headers ride the request, so the server-side handler span joins to
// exactly the attempt that reached it.
type retryExec struct {
	http    *http.Client
	pol     RetryPolicy
	budget  *retryBudget   // nil: pol.MaxAttempts is the only bound
	metrics *ClientMetrics // nil-safe
	jitter  func() float64 // uniform [0,1) draws for the backoff jitter

	parent     *tracing.Span
	comp, name string
}

// do runs the request: build returns a fresh request per attempt
// (bodies are rebuilt, so PUT retries are idempotent re-sends), and
// handle classifies the attempt's outcome — a transport failure arrives
// as err with a nil resp, otherwise handle owns resp.Body.
func (x retryExec) do(ctx context.Context, build func() (*http.Request, error), handle func(att *tracing.Span, resp *http.Response, err error) error) error {
	for attempt := 1; ; attempt++ {
		req, err := build()
		if err != nil {
			return err
		}
		att := x.parent.StartChild(x.comp, x.name)
		att.AnnotateInt("attempt", int64(attempt))
		att.Inject(req.Header)
		actx, cancel := context.WithTimeout(ctx, x.pol.RequestTimeout)
		resp, err := x.http.Do(req.WithContext(actx))
		var retryAfter time.Duration
		if err == nil {
			retryAfter = parseRetryAfter(resp.Header)
		}
		err = handle(att, resp, err)
		cancel()
		if err != nil {
			att.Annotate("fault", err.Error())
		}
		att.End()
		if err == nil {
			if attempt > 1 {
				x.metrics.recovered()
			}
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("storage: %w (last error: %v)", ctx.Err(), err)
		}
		if errors.Is(err, errLegacyRetry) {
			// Dialect probe, not a failure: the host is now marked
			// legacy, so the rebuilt request takes the unversioned
			// path. No backoff, no attempt consumed — and no loop,
			// because the mark flips the path choice permanently.
			attempt--
			continue
		}
		if !retryable(err) {
			return err
		}
		if attempt >= x.pol.MaxAttempts || !x.budget.take() {
			x.metrics.giveup()
			return fmt.Errorf("storage: giving up after %d attempts: %w", attempt, err)
		}
		x.metrics.retry()
		d := min(max(x.pol.backoff(attempt, x.jitter()), retryAfter), x.pol.MaxDelay)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return fmt.Errorf("storage: %w (last error: %v)", ctx.Err(), err)
		}
	}
}

// exec returns the executor for one request of a file operation: the
// client's policy, jitter stream and metrics, the operation's budget,
// and attempt spans under parent.
func (c *Client) exec(budget *retryBudget, parent *tracing.Span) retryExec {
	return retryExec{
		http:    c.httpClient(),
		pol:     c.policy(),
		budget:  budget,
		metrics: c.cfg.Metrics,
		jitter:  c.jitterDraw,
		parent:  parent,
		comp:    tracing.CompClient,
		name:    tracing.SpanAttempt,
	}
}

// doRetry runs one front-end request of budget's operation through the
// client's executor; handle sees only responses (transport failures are
// retried as they are).
func (c *Client) doRetry(budget *retryBudget, parent *tracing.Span, build func() (*http.Request, error), handle func(*http.Response) error) error {
	return c.exec(budget, parent).do(budget.ctx, build, func(_ *tracing.Span, resp *http.Response, err error) error {
		if err != nil {
			return err
		}
		return handle(resp)
	})
}

// policy resolves the effective retry policy.
func (c *Client) policy() RetryPolicy {
	if c.cfg.Retry != nil {
		return c.cfg.Retry.withDefaults()
	}
	return DefaultRetry
}

// newBudget returns the retry budget for one file operation under ctx.
func (c *Client) newBudget(ctx context.Context) *retryBudget {
	b := &retryBudget{ctx: ctx}
	b.remaining.Store(int64(c.policy().Budget))
	return b
}

// jitterDraw returns the next uniform draw from the client's jitter
// stream, created on first use from RetrySeed so backoff sequences
// are reproducible per client.
func (c *Client) jitterDraw() float64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = randx.Derive(c.cfg.RetrySeed, fmt.Sprintf("client/%d/%d", c.cfg.UserID, c.cfg.DeviceID))
	}
	return c.rng.Float64()
}
