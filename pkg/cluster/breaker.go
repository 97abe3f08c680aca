package cluster

import (
	"sync"
	"time"
)

// breakerSet is the per-replica circuit breaker shared by the fabric's
// routing layers, replacing the old fixed quarantine timers with the
// classic three-state policy:
//
//   - closed: requests flow; consecutive failures are counted.
//   - open: `threshold` consecutive failures trip the breaker; the
//     replica is skipped for `cooldown`.
//   - half-open: after the cooldown one probe is allowed through
//     (callers see probeFirst=true and health-check before committing
//     real work). Success closes the breaker; failure re-opens it for
//     another cooldown.
//
// A threshold above 1 keeps one flaky exchange — a chaos-injected
// reset, a single dropped connection — from exiling a healthy replica,
// while a genuinely dead one still trips within two requests.
type breakerSet struct {
	mu        sync.Mutex
	threshold int           // consecutive failures to trip; >= 1
	cooldown  time.Duration // open duration before the half-open probe
	m         map[string]*breakerEntry
	trips     int64 // total closed->open transitions (diagnostics)
}

type breakerEntry struct {
	fails    int       // consecutive failures since the last success
	openedAt time.Time // zero while closed
}

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	if threshold < 1 {
		threshold = 1
	}
	return &breakerSet{threshold: threshold, cooldown: cooldown, m: map[string]*breakerEntry{}}
}

func (s *breakerSet) entry(rep string) *breakerEntry {
	e := s.m[rep]
	if e == nil {
		e = &breakerEntry{}
		s.m[rep] = e
	}
	return e
}

// failure records a failed exchange. Reaching the threshold trips the
// breaker; any failure while open or half-open re-arms the cooldown
// (a failed half-open probe must not readmit the replica).
func (s *breakerSet) failure(rep string) { s.fail(rep, false) }

// down records a failure that proves the replica down, such as a
// refused connection: the breaker trips at once, whatever the streak.
func (s *breakerSet) down(rep string) { s.fail(rep, true) }

func (s *breakerSet) fail(rep string, down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(rep)
	e.fails++
	if down || e.fails >= s.threshold {
		if e.openedAt.IsZero() {
			s.trips++
		}
		e.openedAt = time.Now()
	}
}

// success closes the breaker and clears the failure streak.
func (s *breakerSet) success(rep string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(rep)
	e.fails = 0
	e.openedAt = time.Time{}
}

// state reports whether the replica may carry a request (usable) and
// whether it must be health-probed first (half-open).
func (s *breakerSet) state(rep string) (usable, probeFirst bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[rep]
	if e == nil || e.openedAt.IsZero() {
		return true, false
	}
	if time.Now().After(e.openedAt.Add(s.cooldown)) {
		return true, true
	}
	return false, false
}

// reset forgets every replica's state (fleet membership changed).
func (s *breakerSet) reset() {
	s.mu.Lock()
	s.m = map[string]*breakerEntry{}
	s.mu.Unlock()
}

// snapshot reports total trips and how many breakers are open right
// now.
func (s *breakerSet) snapshot() (trips int64, open int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	//lint:ordered commutative count of open breakers
	for _, e := range s.m {
		if !e.openedAt.IsZero() && !now.After(e.openedAt.Add(s.cooldown)) {
			open++
		}
	}
	return s.trips, open
}
