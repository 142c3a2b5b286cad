package dperf

import (
	"sync"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/replay"
)

// SessionPool is dperf's replay engine, the SimGrid-MSG equivalent
// built on replay, p2pdc and netsim. It keeps per-platform
// replay.Session instances hot and hands each replay an exclusive
// session, so the realized network, route caches and mailboxes survive
// across replays instead of being rebuilt per call. Whoever holds a
// pool — a Pipeline and the artifacts it produces, a set a reader
// built, or one Sweep call's workers — shares it; a long-running
// caller (a prediction server) installs one with WithEngine so it
// serves every request, alongside a shared *Predictor for stable
// platform identity (the pool keys sessions by *Platform). In auto
// mode the pool also runs the verification replay of every
// certificate (see PredictAuto).
//
// Sessions self-heal: a failed replay marks its session dirty and the
// next checkout rebuilds the environment, so a poisoned request never
// contaminates a later one. Pooling is execution strategy only — a
// reused session predicts bit-identically to a fresh one.
//
// SessionPool is safe for concurrent use; concurrent replays against
// one platform each get their own session, and all of them return to
// the pool for reuse.
type SessionPool struct {
	mu   sync.Mutex
	idle map[*platform.Platform][]*replay.Session
	// replays counts replays run, a deterministic work counter.
	replays atomic.Int64
}

// NewSessionPool returns an empty session pool.
func NewSessionPool() *SessionPool {
	return &SessionPool{idle: make(map[*platform.Platform][]*replay.Session)}
}

// checkout hands the caller an exclusive session for the platform,
// reusing an idle one when available.
func (p *SessionPool) checkout(plat *platform.Platform) (*replay.Session, error) {
	p.mu.Lock()
	if ss := p.idle[plat]; len(ss) > 0 {
		s := ss[len(ss)-1]
		p.idle[plat] = ss[:len(ss)-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	//dperfvet:allow sessionreuse pooled: constructed only on pool shortfall, then recycled via checkin for the pool's lifetime
	return replay.NewSession(plat)
}

// checkin returns a session to the idle pool. Sessions come back even
// after a failed run: the session marked itself dirty and rebuilds on
// its next use.
func (p *SessionPool) checkin(plat *platform.Platform, s *replay.Session) {
	p.mu.Lock()
	p.idle[plat] = append(p.idle[plat], s)
	p.mu.Unlock()
}

// Idle reports how many sessions are parked in the pool across all
// platforms.
func (p *SessionPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ss := range p.idle {
		n += len(ss)
	}
	return n
}

// CloseIdle tears down every idle session's simulation environment and
// empties the pool, releasing the realized networks. In-flight
// sessions are unaffected and return to the (now empty) pool when
// their replays finish. Returns the number of sessions closed.
func (p *SessionPool) CloseIdle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ss := range p.idle {
		for _, s := range ss {
			s.Close()
			n++
		}
	}
	p.idle = make(map[*platform.Platform][]*replay.Session)
	return n
}

// replay runs the spec on a pooled session.
func (p *SessionPool) replay(spec engineSpec) (*EngineResult, error) {
	p.replays.Add(1)
	s, err := p.checkout(spec.Platform)
	if err != nil {
		return nil, err
	}
	res, err := s.RunSource(replaySpec(spec), spec.Source)
	p.checkin(spec.Platform, s)
	if err != nil {
		return nil, err
	}
	return engineResult(res), nil
}
