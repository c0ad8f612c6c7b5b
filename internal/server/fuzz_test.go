package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"qres/internal/resolve"
	"qres/internal/testdb"
)

// decodeFuzz runs body through decodeRequest into v, as a handler would.
// On rejection it checks the written response against the error contract
// — a known status with its stable code — and returns false.
func decodeFuzz(t *testing.T, body string, v any) bool {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body))
	if decodeRequest(rec, req, v) {
		return true
	}
	var resp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("rejection body is not the error contract: %v (%q)", err, rec.Body.String())
	}
	want := map[int]string{
		http.StatusBadRequest:            CodeBadRequest,
		http.StatusRequestEntityTooLarge: CodeRequestTooLarge,
	}[rec.Code]
	if want == "" || resp.Error.Code != want || resp.Error.Message == "" {
		t.Fatalf("rejection: status %d, body %+v", rec.Code, resp.Error)
	}
	return false
}

// addFixtureSeeds adds every request body of the legacy-field fixture.
func addFixtureSeeds(f *testing.F) {
	raw, err := os.ReadFile("testdata/removed_worker_fields.json")
	if err != nil {
		f.Fatal(err)
	}
	var fixtures []struct {
		Request json.RawMessage `json:"request"`
	}
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		f.Fatal(err)
	}
	for _, fx := range fixtures {
		f.Add(string(fx.Request))
	}
}

// FuzzCreateSessionRequest feeds arbitrary bodies to the create path's
// decoding and validation (decodeRequest, then sessionConfig). It must
// never panic; every rejection must carry a stable error code; and every
// accepted request must yield a configuration with exactly one of
// Utility and Baseline set, a known learning mode and model, and a forest
// size within the server's bound.
func FuzzCreateSessionRequest(f *testing.F) {
	addFixtureSeeds(f)
	f.Add(`{"query": "...", "strategy": "general", "learning": "online", "seed": 3}`)
	f.Add(`{"query":"SELECT DISTINCT a.Acquired, e.Institute FROM Acquisitions AS a, Roles AS r, Education AS e WHERE a.Acquired = r.Organization AND r.Member = e.Alumni AND a.Date >= 2017.01.01 AND r.Role LIKE '%found%' AND e.YEAR <= year(a.Date)","seed":2}`)
	f.Add(`{"query": "SELECT Organization FROM Roles", "strategy": "qvalue", "learning": "ep", "model": "nb", "trees": 1000}`)
	f.Add(`{"query": "SELECT Organization FROM Roles", "strategy": "lal-only", "trees": 2000000000}`)
	f.Add(`{"query": "  ", "strategy": "random"}`)
	f.Add(`{"query": "q", "trees": 1e400}`)
	f.Add(`[1, 2`)
	f.Fuzz(func(t *testing.T, body string) {
		var req CreateSessionRequest
		if !decodeFuzz(t, body, &req) {
			return
		}
		cfg, err := sessionConfig(req)
		if err != nil {
			if code := errorCode(err, http.StatusBadRequest); code != CodeBadRequest {
				t.Fatalf("sessionConfig(%+v) rejected with code %q: %v", req, code, err)
			}
			return
		}
		if (cfg.Utility != nil) == (cfg.Baseline != resolve.BaselineNone) {
			t.Fatalf("accepted %+v: utility %v, baseline %v", req, cfg.Utility, cfg.Baseline)
		}
		switch cfg.Learning {
		case resolve.LearnEP, resolve.LearnOffline, resolve.LearnOnline:
		default:
			t.Fatalf("accepted %+v: unknown learning mode %v", req, cfg.Learning)
		}
		switch cfg.Model {
		case resolve.ModelRF, resolve.ModelNB:
		default:
			t.Fatalf("accepted %+v: unknown model %v", req, cfg.Model)
		}
		if cfg.Trees < 0 || cfg.Trees > maxTrees {
			t.Fatalf("accepted %+v: trees %d outside [0, %d]", req, cfg.Trees, maxTrees)
		}
		if strings.TrimSpace(req.Query) == "" {
			t.Fatalf("accepted %+v without a query", req)
		}
	})
}

// FuzzAnswerRequest feeds arbitrary bodies to the answer path's decoding
// and tuple lookup over the paper's running example. It must never panic;
// a tuple the database lacks is rejected as unknown_variable; and an
// accepted answer names the variable of exactly the tuple it references.
func FuzzAnswerRequest(f *testing.F) {
	udb := testdb.PaperUncertainDB()
	f.Add(`{"table": "...", "index": 3, "answer": true}`)
	f.Add(`{"table":"acquisitions","index":0,"answer":true}`)
	f.Add(`{"table": "Roles", "index": -1, "answer": false}`)
	f.Add(`{"table": "Roles", "index": 9223372036854775808}`)
	f.Add(`{"table": "NoSuchTable", "index": 0, "answer": true}`)
	f.Add(`{"answer": "yes"}`)
	f.Fuzz(func(t *testing.T, body string) {
		var req AnswerRequest
		if !decodeFuzz(t, body, &req) {
			return
		}
		v, err := answerVar(udb, req)
		if err != nil {
			if code := errorCode(err, http.StatusBadRequest); code != CodeUnknownVariable {
				t.Fatalf("answer %+v rejected with code %q: %v", req, code, err)
			}
			return
		}
		ref, ok := udb.RefFor(v)
		if !ok || ref.Index != req.Index || !strings.EqualFold(ref.Relation, req.Table) {
			t.Fatalf("%s[%d] resolved to variable %d = %+v", req.Table, req.Index, v, ref)
		}
	})
}
