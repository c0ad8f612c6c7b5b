package server

import "qres/internal/store"

// Wire types of the resolution service's HTTP/JSON API (version v1).
//
// A resolution session is created over a query and a strategy; a remote
// oracle then alternates GET /v1/sessions/{id}/probe (which verification
// the Probe Selector wants next) with POST /v1/sessions/{id}/answer until
// the session reports done. Probe delivery is idempotent: retrying the
// GET returns the same outstanding probe, and the POST names the tuple it
// answers, so a lost response cannot misattribute an answer.

// CreateSessionRequest starts a resolution session.
type CreateSessionRequest struct {
	// Query is the SPJU SQL statement to resolve.
	Query string `json:"query"`
	// Strategy selects probe selection: qvalue, ro, general (default),
	// random, greedy, lal-only.
	Strategy string `json:"strategy,omitempty"`
	// Learning selects probability learning: ep, offline, online (default).
	Learning string `json:"learning,omitempty"`
	// Model selects the Learner's classifier: rf (default) or nb.
	Model string `json:"model,omitempty"`
	// Seed fixes the session's random choices (0 is a valid fixed seed).
	Seed int64 `json:"seed,omitempty"`
	// Trees overrides the forest size (default 100, at most 1000).
	Trees int `json:"trees,omitempty"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID string `json:"id"`
	// Strategy is the configuration's display name (e.g. "General+LAL").
	Strategy string `json:"strategy"`
	// Rows is the number of query result rows under resolution.
	Rows int `json:"rows"`
	// Probes is the number of answers recorded so far.
	Probes int `json:"probes"`
	// KnownReused counts verifications served from the shared repository
	// instead of the oracle.
	KnownReused int  `json:"known_reused"`
	Done        bool `json:"done"`
	// Components is the number of variable-disjoint connected components
	// the session's provenance splits into (each resolved by its own
	// shard).
	Components int `json:"components"`
	// ComponentGroup fingerprints the component structure; sessions over
	// the same query and repository state share a group and are co-located
	// on one shard group over the shared repository view.
	ComponentGroup string `json:"component_group"`
	// CreatedUnix and LastUsedUnix are Unix seconds.
	CreatedUnix  int64 `json:"created_unix"`
	LastUsedUnix int64 `json:"last_used_unix"`
}

// ProbeResponse is the outstanding verification request, or done.
type ProbeResponse struct {
	Done bool `json:"done"`
	// Probe is set when Done is false.
	Probe *ProbeJSON `json:"probe,omitempty"`
}

// ProbeJSON renders one probe request for a remote oracle.
type ProbeJSON struct {
	Table string `json:"table"`
	Index int    `json:"index"`
	// Round is the probe-selection round this request belongs to.
	Round int `json:"round"`
	// Values are the tuple's rendered column values.
	Values []string `json:"values"`
	// Meta is the tuple's metadata.
	Meta map[string]string `json:"meta,omitempty"`
}

// AnswerRequest delivers the oracle's verdict for the outstanding probe.
type AnswerRequest struct {
	Table  string `json:"table"`
	Index  int    `json:"index"`
	Answer bool   `json:"answer"`
}

// AnswerResponse acknowledges a recorded answer.
type AnswerResponse struct {
	Done bool `json:"done"`
	// Probes is the total number of answers recorded in this session.
	Probes int `json:"probes"`
}

// RowStatusJSON is the live resolution status of one output row.
type RowStatusJSON struct {
	Row int `json:"row"`
	// Values are the row's rendered column values.
	Values []string `json:"values"`
	// Status is "unknown", "correct" or "incorrect".
	Status string `json:"status"`
}

// StatusResponse reports a session's live resolution state — the paper's
// interactive view of which answers are already decided.
type StatusResponse struct {
	SessionInfo
	RowStatus []RowStatusJSON `json:"row_status"`
}

// StoreStatusResponse (GET /v1/store) describes the persistence engine
// behind the shared repository.
type StoreStatusResponse struct {
	// Persistent reports whether answers are durably logged at all.
	Persistent bool `json:"persistent"`
	// Engine names the storage engine ("segmented"), empty when
	// persistence is disabled.
	Engine string `json:"engine,omitempty"`
	// WALRecords is the replay backlog a restart right now would face.
	WALRecords int `json:"wal_records"`
	// RepositoryRecords is the size of the in-memory shared repository.
	RepositoryRecords int `json:"repository_records"`
	// Stats carries the storage engine's full counters (segment
	// inventory, group-commit and compaction totals); nil when
	// persistence is disabled.
	Stats *store.Stats `json:"stats,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries a stable machine-readable code (see the Code*
// constants) plus human-readable detail. Clients branch on Code; Message
// may change between releases.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}
