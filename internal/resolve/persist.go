package resolve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"qres/internal/boolexpr"
)

// Repository persistence: the paper's Known Probes Repository outlives a
// single session — answers collected for one query seed the Learner for
// the next (Section 4). SaveJSON/LoadJSON serialize the repository as
// JSONL, one probe record per line.
//
// Variable identifiers are only meaningful relative to the uncertain
// database they were allocated for; records therefore persist the
// variable's registry name, and loading binds names back to variables via
// the caller-supplied resolver (or keeps records metadata-only when a name
// no longer resolves, which still makes them Learner training data).

type jsonProbe struct {
	Var    string            `json:"var,omitempty"`
	Meta   map[string]string `json:"meta,omitempty"`
	Answer bool              `json:"answer"`
}

// SaveJSON writes the repository; name maps variables to stable names
// (typically Registry.Name of the owning uncertain database). The records
// are snapshotted under the repository lock first, so concurrent sessions
// may keep appending while the snapshot is encoded.
func (r *Repository) SaveJSON(w io.Writer, name func(boolexpr.Var) string) error {
	records := r.Records()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range records {
		if err := enc.Encode(encodeProbe(rec, name)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeProbe converts a record to its serialized form.
func encodeProbe(rec ProbeRecord, name func(boolexpr.Var) string) jsonProbe {
	jp := jsonProbe{Meta: rec.Meta, Answer: rec.Answer}
	if rec.HasVar && name != nil {
		jp.Var = name(rec.Var)
	}
	return jp
}

// LoadJSON reads records written by SaveJSON into a new repository.
// resolve maps stable names back to variables; records whose name does not
// resolve (or when resolve is nil) are kept as metadata-only training
// examples.
//
// A malformed final line is skipped rather than failing the whole restore:
// it is the signature of a crash mid-append to a write-ahead log, and every
// complete line before it is still good. Corruption followed by further
// well-formed lines is still an error — that is damage, not truncation.
func LoadJSON(rd io.Reader, resolve func(name string) (boolexpr.Var, bool)) (*Repository, error) {
	repo, _, err := loadJSON(rd, resolve)
	return repo, err
}

// LoadJSONStats is LoadJSON, additionally reporting whether a truncated
// trailing line was skipped (so callers can log the partial write).
func LoadJSONStats(rd io.Reader, resolve func(name string) (boolexpr.Var, bool)) (repo *Repository, truncated bool, err error) {
	return loadJSON(rd, resolve)
}

func loadJSON(rd io.Reader, resolve func(name string) (boolexpr.Var, bool)) (*Repository, bool, error) {
	repo := NewRepository()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	badLine := 0 // most recent undecodable line, pending a verdict
	var badErr error
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if badLine != 0 {
			// A well-formed line after a bad one: mid-file corruption.
			return nil, false, fmt.Errorf("resolve: probes line %d: %w", badLine, badErr)
		}
		var jp jsonProbe
		if err := json.Unmarshal(raw, &jp); err != nil {
			badLine, badErr = line, err
			continue
		}
		if jp.Var != "" && resolve != nil {
			if v, ok := resolve(jp.Var); ok {
				repo.AddVar(v, jp.Meta, jp.Answer)
				continue
			}
		}
		repo.Add(jp.Meta, jp.Answer)
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	if badLine != 0 {
		// The undecodable line was the last one: a torn trailing write.
		return repo, true, nil
	}
	return repo, false, nil
}
