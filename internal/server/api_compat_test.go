package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"qres/internal/resolve"
	"qres/internal/store"
)

// postRaw posts a raw JSON payload and decodes the response body into a
// generic map, returning it with the status code. Unlike doJSON it decodes
// error responses too, so tests can assert on the error body shape.
func postRaw(t *testing.T, url, payload string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, body
}

// errCode extracts the code from a {"error": {"code": ..., "message": ...}}
// body, failing the test if the body has any other shape.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("error body missing nested object: %v", body)
	}
	code, ok := e["code"].(string)
	if !ok || code == "" {
		t.Fatalf("error body missing code: %v", body)
	}
	if msg, ok := e["message"].(string); !ok || msg == "" {
		t.Fatalf("error body missing message: %v", body)
	}
	return code
}

// Every error response carries the documented {"error": {"code", "message"}}
// body, and the codes are the stable machine-readable names from the README
// error contract — clients dispatch on them, so they are part of the API.
func TestErrorCodeContract(t *testing.T) {
	_, base := startServer(t, Config{MaxSessions: 1})

	if st, body := postRaw(t, base+"/v1/sessions", `{"query": ""}`); st != http.StatusBadRequest {
		t.Errorf("empty query: status %d", st)
	} else if c := errCode(t, body); c != CodeBadRequest {
		t.Errorf("empty query: code %q, want %q", c, CodeBadRequest)
	}

	resp, err := http.Get(base + "/v1/sessions/deadbeef/probe")
	if err != nil {
		t.Fatal(err)
	}
	var nf map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&nf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d", resp.StatusCode)
	} else if c := errCode(t, nf); c != CodeUnknownSession {
		t.Errorf("unknown session: code %q, want %q", c, CodeUnknownSession)
	}

	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: paperSQL}, &info, http.StatusCreated)

	// Session cap of one: the next create is rejected with the capacity code.
	if st, body := postRaw(t, base+"/v1/sessions", `{"query": "SELECT Organization FROM Roles"}`); st != http.StatusTooManyRequests {
		t.Errorf("capacity: status %d", st)
	} else if c := errCode(t, body); c != CodeCapacity {
		t.Errorf("capacity: code %q, want %q", c, CodeCapacity)
	}

	sessURL := base + "/v1/sessions/" + info.ID

	// Answering before fetching a probe: no_probe_pending.
	if st, body := postRaw(t, sessURL+"/answer", `{"table": "Roles", "index": 0, "answer": true}`); st != http.StatusConflict {
		t.Errorf("no probe pending: status %d", st)
	} else if c := errCode(t, body); c != CodeNoProbePending {
		t.Errorf("no probe pending: code %q, want %q", c, CodeNoProbePending)
	}

	var pr ProbeResponse
	mustJSON(t, "GET", sessURL+"/probe", nil, &pr, http.StatusOK)
	if pr.Done {
		t.Fatal("session done before any answer")
	}

	// Answering a tuple that does not exist: unknown_variable.
	if st, body := postRaw(t, sessURL+"/answer", `{"table": "NoSuchTable", "index": 0, "answer": true}`); st != http.StatusBadRequest {
		t.Errorf("unknown variable: status %d", st)
	} else if c := errCode(t, body); c != CodeUnknownVariable {
		t.Errorf("unknown variable: code %q, want %q", c, CodeUnknownVariable)
	}

	// Answering a tuple other than the outstanding probe: probe_mismatch.
	other := AnswerRequest{Table: "Roles", Index: 0}
	if pr.Probe.Table == other.Table && pr.Probe.Index == other.Index {
		other.Index = 1
	}
	raw, _ := json.Marshal(other)
	if st, body := postRaw(t, sessURL+"/answer", string(raw)); st != http.StatusConflict {
		t.Errorf("probe mismatch: status %d", st)
	} else if c := errCode(t, body); c != CodeProbeMismatch {
		t.Errorf("probe mismatch: code %q, want %q", c, CodeProbeMismatch)
	}
}

// Only record-step refusals are the client's fault (409, re-GET the
// probe). A fault that ended the session, an advance-step failure and a
// WAL append failure are the server's (500 internal). An advance failure
// cannot be provoked over HTTP (simplification only shrinks expressions),
// so the classification is checked directly.
func TestAnswerFailureClassification(t *testing.T) {
	fault := errors.New("resolve: CNF of expression 3 exceeds 4096 clauses; split it first")
	for _, tc := range []struct {
		name                          string
		recordErr, advanceErr, walErr error
		status                        int
		code                          string
	}{
		{"success", nil, nil, nil, 0, ""},
		{"probe mismatch", fmt.Errorf("%w: answer for variable 1 but probe 2 is outstanding", resolve.ErrProbeMismatch), nil, nil, http.StatusConflict, CodeProbeMismatch},
		{"no probe pending", resolve.ErrNoProbePending, nil, nil, http.StatusConflict, CodeNoProbePending},
		{"session done", resolve.ErrSessionDone, nil, nil, http.StatusConflict, CodeSessionDone},
		{"session ended by an earlier fault", fault, nil, nil, http.StatusInternalServerError, CodeInternal},
		{"advance failure", nil, fault, nil, http.StatusInternalServerError, CodeInternal},
		{"wal append failure", nil, nil, store.ErrClosed, http.StatusInternalServerError, CodeInternal},
	} {
		status, err := answerFailure(tc.recordErr, tc.advanceErr, tc.walErr)
		if status != tc.status || (err == nil) != (tc.status == 0) {
			t.Errorf("%s: status %d, err %v; want %d", tc.name, status, err, tc.status)
			continue
		}
		if err != nil {
			if code := errorCode(err, status); code != tc.code {
				t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
			}
		}
	}
}

// Worker counts and the incremental toggle are not part of the API: every
// pool follows GOMAXPROCS and the full-recompute path is a test oracle
// only. Create requests that still carry those fields (the fixtures in
// testdata/removed_worker_fields.json) succeed with the fields ignored —
// the decoder is not strict — and SessionInfo, from create and from GET,
// carries no parallelism key.
func TestParallelismFieldCompat(t *testing.T) {
	_, base := startServer(t, Config{})

	raw, err := os.ReadFile("testdata/removed_worker_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []struct {
		Name    string          `json:"name"`
		Request json.RawMessage `json:"request"`
	}
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures")
	}
	for _, fx := range fixtures {
		st, body := postRaw(t, base+"/v1/sessions", string(fx.Request))
		if st != http.StatusCreated {
			t.Fatalf("%s: status %d (%v)", fx.Name, st, body)
		}
		if _, ok := body["parallelism"]; ok {
			t.Errorf("%s: create SessionInfo carries parallelism: %v", fx.Name, body)
		}
		if g, _ := body["component_group"].(string); len(g) != 16 {
			t.Errorf("%s: component_group not a 16-hex signature: %q", fx.Name, g)
		}
		if c, _ := body["components"].(float64); c < 1 {
			t.Errorf("%s: components not reported: %v", fx.Name, body["components"])
		}

		id, _ := body["id"].(string)
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var again map[string]any
		err = json.NewDecoder(resp.Body).Decode(&again)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode info: %v", fx.Name, err)
		}
		if again["id"] != id {
			t.Fatalf("%s: GET session info: %v", fx.Name, again)
		}
		if _, ok := again["parallelism"]; ok {
			t.Errorf("%s: GET SessionInfo carries parallelism: %v", fx.Name, again)
		}
	}
}

// A create request asking for more trees than the server allows is
// refused with 400 bad_request before any query or training runs, and the
// server keeps serving afterwards.
func TestOversizedTreesRejected(t *testing.T) {
	_, base := startServer(t, Config{})

	for _, trees := range []int{maxTrees + 1, 2_000_000_000, -1} {
		payload := fmt.Sprintf(`{"query": "SELECT Organization FROM Roles", "trees": %d}`, trees)
		if st, body := postRaw(t, base+"/v1/sessions", payload); st != http.StatusBadRequest {
			t.Errorf("trees=%d: status %d, want %d", trees, st, http.StatusBadRequest)
		} else if c := errCode(t, body); c != CodeBadRequest {
			t.Errorf("trees=%d: code %q, want %q", trees, c, CodeBadRequest)
		}
	}

	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: paperSQL, Trees: 5}, &info, http.StatusCreated)
	var pr ProbeResponse
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/probe", nil, &pr, http.StatusOK)
}

// A request body over the 1 MiB bound is refused with 413 and the
// request_too_large code before it is decoded in full, and the server
// keeps serving afterwards.
func TestOversizedBodyRejected(t *testing.T) {
	_, base := startServer(t, Config{})

	huge := `{"query": "SELECT Organization FROM Roles", "strategy": "` +
		strings.Repeat("x", 2<<20) + `"}`
	if st, body := postRaw(t, base+"/v1/sessions", huge); st != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB create: status %d, want %d", st, http.StatusRequestEntityTooLarge)
	} else if c := errCode(t, body); c != CodeRequestTooLarge {
		t.Errorf("2 MiB create: code %q, want %q", c, CodeRequestTooLarge)
	}

	var info SessionInfo
	mustJSON(t, "POST", base+"/v1/sessions", CreateSessionRequest{Query: paperSQL}, &info, http.StatusCreated)
	var pr ProbeResponse
	mustJSON(t, "GET", base+"/v1/sessions/"+info.ID+"/probe", nil, &pr, http.StatusOK)
}
