package storage

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"mcloud/internal/tracing"
)

// The service speaks two wire dialects:
//
//   - The versioned /v1 API: /v1/op/store, /v1/op/retrieve,
//     /v1/op/stat, /v1/chunk/{md5}, plus the /v1/cluster/* admin
//     endpoints. Errors are a typed JSON envelope
//     {code, message, retryable} that maps onto the package's
//     sentinel errors on both sides of the wire.
//   - The legacy unversioned paths (/op/store, /op/retrieve,
//     /chunk/{md5}), kept as thin aliases. Errors are the historical
//     {"error": "..."} body.
//
// Negotiation rides on the X-MCS-API header: servers stamp every
// response with "v1"; clients advertise "v1" on every request and
// fall back to the legacy paths when a /v1 request comes back 404
// without the header (which only an old server produces — a v1
// server's 404s always carry it). A client that has fallen back
// remembers the verdict per front-end, so negotiation costs one
// round trip per host, once. Requests on a legacy alias that carry
// the header still receive the typed envelope.

// APIHeader is the version-negotiation header.
const APIHeader = "X-MCS-API"

// APIV1 is the current wire version tag.
const APIV1 = "v1"

// ReplicaHeader marks cluster-internal replica traffic: a chunk
// request carrying it is served from (or written to) the node's local
// store directly, never re-forwarded — this is what bounds the
// forwarding depth of the replication fan-out to one hop.
const ReplicaHeader = "X-MCS-Replica"

// Error codes of the /v1 envelope. Each maps to a sentinel error (or
// to nil for the generic codes); see APIError.Unwrap.
const (
	CodeBadRequest       = "bad_request"
	CodeBadDigest        = "bad_digest"
	CodeNotFound         = "not_found"
	CodeTooLarge         = "too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeOverloaded       = "overloaded"
	CodeUnavailable      = "unavailable"
	CodeNotPrimary       = "not_primary"
	CodeFenced           = "fenced"
	CodeWrongShard       = "wrong_shard"
	CodeInternal         = "internal"
)

// MetaEpochHeader carries the metadata leadership epoch. Every
// /v1/meta/* response is stamped with the serving node's current
// epoch; clients echo the highest epoch they have observed on their
// requests. A primary that receives a request carrying a higher epoch
// than its own has been deposed and fences itself: subsequent writes
// fail with CodeFenced until it rejoins as a standby.
const MetaEpochHeader = "X-MCS-Meta-Epoch"

// MetaShardHeader carries the metadata shard exchange, mirroring the
// epoch exchange: every /v1/meta/* response is stamped with
// "<shard>@<map-version>" naming the shard the serving node owns and
// the shard-map version it owns it under; clients echo the shard they
// *meant* to reach and the map version they routed with. A mismatch
// surfaces as the typed wrong_shard redirect rather than a silently
// misplaced write.
const MetaShardHeader = "X-MCS-Meta-Shard"

// ShardAssignment is the authoritative routing fact carried inside a
// wrong_shard envelope: which shard owns the user the request was
// about, under which map version, and (when the server knows them)
// the owning shard group's endpoints. A client that adopts the
// assignment converges in one bounce.
type ShardAssignment struct {
	Shard      int      `json:"shard"`
	MapVersion uint64   `json:"map_version"`
	Endpoints  []string `json:"endpoints,omitempty"`
}

// FormatMetaShard renders the MetaShardHeader value.
func FormatMetaShard(shard int, mapVersion uint64) string {
	return fmt.Sprintf("%d@%d", shard, mapVersion)
}

// ParseMetaShard decodes a MetaShardHeader value; ok is false for a
// missing or malformed header (legacy peer).
func ParseMetaShard(v string) (shard int, mapVersion uint64, ok bool) {
	if v == "" {
		return 0, 0, false
	}
	var s int
	var mv uint64
	if _, err := fmt.Sscanf(v, "%d@%d", &s, &mv); err != nil || s < 0 {
		return 0, 0, false
	}
	return s, mv, true
}

// APIError is the typed /v1 error envelope. On the server it is
// rendered as the response body; on the client it is decoded back and
// unwraps to the matching sentinel, so errors.Is(err, ErrNotFound)
// holds across the wire.
type APIError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	// TraceID echoes the request's X-MCS-Trace, when it carried one,
	// so a client-side retry span can be joined to the server-side
	// rejection that caused it.
	TraceID string `json:"trace_id,omitempty"`
	// Assignment rides on wrong_shard envelopes only: the
	// authoritative shard for the user the request addressed.
	Assignment *ShardAssignment `json:"assignment,omitempty"`
	// Status is the HTTP status the envelope arrived with
	// (client-side only; not serialized).
	Status int `json:"-"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("storage: api error %s: %s", e.Code, e.Message)
}

// Unwrap maps the wire code back onto the package sentinel, so typed
// error checks work identically against local and remote servers.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case CodeBadDigest:
		return ErrBadDigest
	case CodeNotFound:
		return ErrNotFound
	case CodeTooLarge:
		return ErrTooLarge
	case CodeOverloaded:
		return ErrOverloaded
	case CodeUnavailable:
		return ErrUnavailable
	case CodeNotPrimary:
		return ErrNotPrimary
	case CodeFenced:
		return ErrFenced
	case CodeWrongShard:
		return ErrWrongShard
	default:
		return nil
	}
}

// wrongShardError is the server-side carrier of a shard redirect: it
// unwraps to ErrWrongShard and classifyAPIError lifts its Assignment
// into the envelope.
type wrongShardError struct {
	assignment ShardAssignment
}

func (e *wrongShardError) Error() string {
	return fmt.Sprintf("storage: wrong metadata shard: owner is shard %d (map v%d)",
		e.assignment.Shard, e.assignment.MapVersion)
}

func (e *wrongShardError) Unwrap() error { return ErrWrongShard }

// classifyAPIError derives the envelope for an error escaping a
// handler with the given HTTP status.
func classifyAPIError(status int, err error) APIError {
	e := APIError{Message: err.Error(), Status: status}
	switch {
	case errors.Is(err, ErrBadDigest):
		e.Code = CodeBadDigest
	case errors.Is(err, ErrNotFound):
		e.Code = CodeNotFound
	case errors.Is(err, ErrTooLarge):
		e.Code = CodeTooLarge
	case errors.Is(err, ErrOverloaded):
		e.Code, e.Retryable = CodeOverloaded, true
	case errors.Is(err, ErrWrongShard):
		// Retryable: the client adopts the attached assignment and the
		// retry lands on the owning shard — one bounce, by design.
		e.Code, e.Retryable = CodeWrongShard, true
		var ws *wrongShardError
		if errors.As(err, &ws) {
			a := ws.assignment
			e.Assignment = &a
		}
	case errors.Is(err, ErrFenced):
		// Retryable: the write will succeed once the client re-routes
		// to the primary that holds the newer epoch.
		e.Code, e.Retryable = CodeFenced, true
	case errors.Is(err, ErrNotPrimary):
		// Checked before ErrUnavailable: ErrNotPrimary wraps it.
		e.Code, e.Retryable = CodeNotPrimary, true
	case errors.Is(err, ErrUnavailable):
		e.Code, e.Retryable = CodeUnavailable, true
	case status == http.StatusMethodNotAllowed:
		e.Code = CodeMethodNotAllowed
	case status == http.StatusServiceUnavailable, status == http.StatusTooManyRequests:
		e.Code, e.Retryable = CodeOverloaded, true
	case status >= 500:
		e.Code, e.Retryable = CodeInternal, true
	default:
		e.Code = CodeBadRequest
	}
	return e
}

// wantsV1 reports whether the request asked for the typed envelope:
// it arrived on a /v1 path, or it advertises v1 via X-MCS-API.
func wantsV1(r *http.Request) bool {
	if r == nil {
		return false
	}
	return strings.HasPrefix(r.URL.Path, "/v1/") || r.Header.Get(APIHeader) == APIV1
}

// requestTraceID returns the trace the request runs under: the
// context span when the tracing middleware admitted it, else the raw
// X-MCS-Trace header (set even when this process records no spans —
// e.g. a shed request rejected before the middleware).
func requestTraceID(r *http.Request) string {
	if r == nil {
		return ""
	}
	if sp := tracing.FromContext(r.Context()); sp != nil {
		return sp.Trace.String()
	}
	if tid := tracing.ParseTraceID(r.Header.Get(tracing.TraceHeader)); tid != 0 {
		return tid.String()
	}
	return ""
}

// writeAPIError writes one error response in the dialect the request
// speaks: the typed /v1 envelope, or the legacy {"error": ...} body.
// Either way the response echoes the request's trace ID (header
// always, envelope field on /v1) so failed attempts stay joinable.
func writeAPIError(w http.ResponseWriter, r *http.Request, status int, err error) {
	tid := requestTraceID(r)
	if tid != "" {
		w.Header().Set(tracing.TraceHeader, tid)
	}
	if !wantsV1(r) {
		writeError(w, status, err)
		return
	}
	env := classifyAPIError(status, err)
	env.TraceID = tid
	if env.Code == CodeOverloaded {
		w.Header().Set("Retry-After", "1")
	}
	// Stamp the dialect here, not just in advertiseV1: error writers
	// that sit outside the mux (the shedder's 503 fast path) must still
	// come back as a typed envelope, or the client degrades the error
	// to the legacy body and loses the code and trace ID.
	w.Header().Set(APIHeader, APIV1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSONBody(w, env)
}

// advertiseV1 wraps a handler so every response — success or error —
// carries the X-MCS-API stamp clients negotiate against.
func advertiseV1(next http.Handler) http.Handler {
	return advertiseDialects(false, next)
}

// advertiseDialects stamps every response with the dialects this
// server speaks: always X-MCS-API: v1, plus X-MCS-Bin: mcsbin/1 and
// X-MCS-Bin-Ops: file-retrieve when the binary chunk dialect is
// enabled. Clients treat the bin stamp as the capability signal, so a
// node built (or flagged) without the dialect silently keeps its peers
// on JSON.
func advertiseDialects(bin bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(APIHeader, APIV1)
		if bin {
			w.Header().Set(BinHeader, BinV1)
			w.Header().Set(BinOpsHeader, BinOpFileRetrieve)
		}
		next.ServeHTTP(w, r)
	})
}

// LegacySunset is the announced removal date for the unversioned
// legacy aliases, stamped into the Sunset header of every alias
// response (see API.md, "Deprecation timeline"). The aliases default
// on for one release behind -legacyapi, then default off.
const LegacySunset = "Sun, 01 Nov 2026 00:00:00 GMT"

// deprecateAlias wraps a legacy-alias handler so every response
// carries the deprecation trio: Deprecation (RFC 9745), Sunset
// (RFC 8594) naming the removal date, and a Link to the /v1
// successor route.
func deprecateAlias(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hdr := w.Header()
		hdr.Set("Deprecation", "true")
		hdr.Set("Sunset", LegacySunset)
		hdr.Set("Link", `</v1`+path+`>; rel="successor-version"`)
		h(w, r)
	}
}

// registerBoth registers a handler under its legacy path and the /v1
// alias, so negotiated and legacy clients land on the same code.
func registerBoth(mux *http.ServeMux, path string, h http.HandlerFunc) {
	registerBothGated(mux, true, path, h)
}

// registerBothGated is registerBoth with the legacy alias behind a
// gate: when legacy is false only the /v1 route exists and the
// unversioned path 404s like any unknown route; when true the alias
// answers, stamped with the deprecation headers.
func registerBothGated(mux *http.ServeMux, legacy bool, path string, h http.HandlerFunc) {
	if legacy {
		mux.HandleFunc(path, deprecateAlias(path, h))
	}
	mux.HandleFunc("/v1"+path, h)
}

// isReplicaRequest reports cluster-internal replica traffic.
func isReplicaRequest(r *http.Request) bool {
	return r.Header.Get(ReplicaHeader) != ""
}

// trimChunkPath extracts the digest from either dialect's chunk path.
func trimChunkPath(path string) string {
	path = strings.TrimPrefix(path, "/v1")
	return strings.TrimPrefix(path, "/chunk/")
}
