package engine

import (
	"context"
	"sync"

	"storm/internal/geo"
)

// Session models the paper's interactive exploration flow: a user keeps
// one query running at a time and may replace it at any moment — zooming
// to a different region or adjusting the time window — without waiting for
// the running query to finish. Starting a new query through a session
// cancels the previous one.
type Session struct {
	mu     sync.Mutex
	handle *Handle
	cancel context.CancelFunc
}

// NewSession returns an interactive session over a dataset.
func NewSession(h *Handle) *Session {
	return &Session{handle: h}
}

// Handle returns the session's dataset handle.
func (s *Session) Handle() *Handle { return s.handle }

// begin cancels any running query and returns a context for the next one.
func (s *Session) begin(parent context.Context) context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
	}
	ctx, cancel := context.WithCancel(parent)
	s.cancel = cancel
	return ctx
}

// Stop cancels the running query, if any.
func (s *Session) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// EstimateOnline starts an online aggregation query, cancelling the
// session's previous query first.
func (s *Session) EstimateOnline(parent context.Context, q geo.Range, opts Options) (<-chan Snapshot, error) {
	return s.handle.EstimateOnline(s.begin(parent), q, opts)
}

// KDEOnline starts an online KDE, cancelling the previous query first.
func (s *Session) KDEOnline(parent context.Context, q geo.Range, kopts KDEOptions, opts Options) (<-chan KDESnapshot, error) {
	return s.handle.KDEOnline(s.begin(parent), q, kopts, opts)
}

// TermsOnline starts online short-text understanding, cancelling the
// previous query first.
func (s *Session) TermsOnline(parent context.Context, q geo.Range, textCol string, topN int, opts Options) (<-chan TermsSnapshot, error) {
	return s.handle.TermsOnline(s.begin(parent), q, textCol, topN, opts)
}
