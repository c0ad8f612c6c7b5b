package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/resolve"
)

// session is one live resolution session hosted by the service. The
// per-session mutex serializes probe selection and answer recording; the
// session is parked (no goroutine, no lock held) between the two, so a
// remote oracle may take arbitrarily long per answer without pinning
// server resources.
type session struct {
	id      string
	created time.Time

	mu       sync.Mutex
	inner    *resolve.Session
	result   *engine.Result
	name     string     // configuration display name
	scope    *obs.Scope // request-scoped trace identity (session + request IDs)
	obs      *obs.Obs   // the session's instrumentation handle, for server-side spans
	group    string     // component signature; sessions with equal groups co-locate
	lastUsed time.Time
	probes   int
	done     bool
}

// touch updates the idle clock. Callers hold s.mu.
func (s *session) touch() { s.lastUsed = time.Now() }

// manager owns the live sessions: bounded admission (max sessions, 429
// backpressure), lookup, TTL eviction of idle sessions, and the shard
// groups — sessions with equal component signatures, counted together so
// the service can see how much co-locatable load each structure carries
// over the one shared repository view.
type manager struct {
	max int
	ttl time.Duration
	reg *obs.Registry

	mu       sync.Mutex
	sessions map[string]*session
	groups   map[string]int // component signature -> live session count
}

func newManager(max int, ttl time.Duration, reg *obs.Registry) *manager {
	return &manager{max: max, ttl: ttl, reg: reg,
		sessions: make(map[string]*session), groups: make(map[string]int)}
}

// errCapacity is returned by add when the session cap is reached.
var errCapacity = fmt.Errorf("session capacity reached")

// add admits a new session, sweeping expired ones first so idle sessions
// never block new work.
func (m *manager) add(s *session) error {
	m.sweep()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sessions) >= m.max {
		return errCapacity
	}
	m.sessions[s.id] = s
	if s.group != "" {
		m.groups[s.group]++
	}
	m.gaugesLocked()
	m.reg.Counter("sessions_created_total").Inc()
	return nil
}

// dropGroupLocked releases one session's group reference. Callers hold m.mu.
func (m *manager) dropGroupLocked(s *session) {
	if s.group == "" {
		return
	}
	if m.groups[s.group]--; m.groups[s.group] <= 0 {
		delete(m.groups, s.group)
	}
}

// gaugesLocked refreshes the session/group gauges. Callers hold m.mu.
func (m *manager) gaugesLocked() {
	m.reg.Gauge("sessions_active").Set(float64(len(m.sessions)))
	m.reg.Gauge("component_groups_active").Set(float64(len(m.groups)))
}

// get returns the session and refreshes its idle clock.
func (m *manager) get(id string) (*session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// remove deletes a session (explicit DELETE, or after retrieval of a
// finished resolution).
func (m *manager) remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return false
	}
	delete(m.sessions, id)
	m.dropGroupLocked(s)
	m.gaugesLocked()
	return true
}

// list snapshots the live sessions.
func (m *manager) list() []*session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// sweep evicts sessions idle longer than the TTL and reports how many.
func (m *manager) sweep() int {
	if m.ttl <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-m.ttl)
	m.mu.Lock()
	defer m.mu.Unlock()
	evicted := 0
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := s.lastUsed.Before(cutoff)
		s.mu.Unlock()
		if idle {
			delete(m.sessions, id)
			m.dropGroupLocked(s)
			evicted++
		}
	}
	if evicted > 0 {
		m.gaugesLocked()
		m.reg.Counter("sessions_expired_total").Add(int64(evicted))
	}
	return evicted
}

// newSessionID returns a 16-hex-digit random identifier.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}
