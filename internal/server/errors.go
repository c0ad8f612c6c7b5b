package server

import (
	"errors"
	"net/http"

	"qres/internal/resolve"
)

// Stable machine-readable error codes of the v1 API. Every non-2xx
// response body is {"error": {"code": ..., "message": ...}}; clients
// branch on the code, the message is human-readable detail that may
// change between releases.
const (
	// CodeBadRequest: malformed JSON or an invalid configuration value.
	CodeBadRequest = "bad_request"
	// CodeUnknownSession: the session ID names no live session (never
	// created, expired, or deleted).
	CodeUnknownSession = "unknown_session"
	// CodeUnknownVariable: the referenced tuple is not in the database.
	CodeUnknownVariable = "unknown_variable"
	// CodeSessionDone: the session finished; no further probes or answers.
	CodeSessionDone = "session_done"
	// CodeNoProbePending: an answer arrived with no probe outstanding.
	CodeNoProbePending = "no_probe_pending"
	// CodeProbeMismatch: the answer names a different tuple than the
	// outstanding probe.
	CodeProbeMismatch = "probe_mismatch"
	// CodeCapacity: the session cap is reached; retry later (HTTP 429).
	CodeCapacity = "capacity"
	// CodeRequestTooLarge: the request body exceeds the 1 MiB bound
	// (HTTP 413).
	CodeRequestTooLarge = "request_too_large"
	// CodeInternal: an unexpected server-side fault.
	CodeInternal = "internal"
)

// errUnknownSession is the single unknown-session error every handler maps
// onto CodeUnknownSession.
var errUnknownSession = errors.New("unknown session")

// errorCode resolves an error to its stable wire code: typed sentinels map
// directly, anything else falls back on the HTTP status class.
func errorCode(err error, status int) string {
	switch {
	case errors.Is(err, errUnknownSession):
		return CodeUnknownSession
	case errors.Is(err, resolve.ErrUnknownVariable):
		return CodeUnknownVariable
	case errors.Is(err, resolve.ErrSessionDone):
		return CodeSessionDone
	case errors.Is(err, resolve.ErrNoProbePending):
		return CodeNoProbePending
	case errors.Is(err, resolve.ErrProbeMismatch):
		return CodeProbeMismatch
	case errors.Is(err, errCapacity):
		return CodeCapacity
	case errors.As(err, new(*http.MaxBytesError)):
		return CodeRequestTooLarge
	}
	switch {
	case status == 404:
		return CodeUnknownSession
	case status == 429:
		return CodeCapacity
	case status >= 400 && status < 500:
		return CodeBadRequest
	default:
		return CodeInternal
	}
}
