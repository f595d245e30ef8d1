package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stats"
)

// IntrospectionConfig sizes the workload-introspection layer: statement
// statistics, the live activity view and the flight recorder. Zero fields
// take the stats package defaults; introspection itself is always on (its
// hot-path cost is a handful of atomics and one mutex acquisition per
// query).
type IntrospectionConfig struct {
	// MaxStatements caps distinct fingerprints in /stats/statements before
	// new ones fold into the overflow bucket.
	MaxStatements int
	// FlightSize is the flight-recorder ring capacity.
	FlightSize int
	// FlightSample keeps 1-in-N unremarkable queries in the flight recorder
	// (slow and failed queries are always kept).
	FlightSample int
	// SlowThreshold is the latency at which a query counts as slow for
	// flight-recorder retention.
	SlowThreshold time.Duration
}

// WithIntrospection sizes the workload-introspection layer.
func WithIntrospection(ic IntrospectionConfig) Option {
	return func(c *Config) { c.Introspect = ic }
}

// StatementStats exposes the per-fingerprint registry behind
// GET /stats/statements and GET /stats/planner.
func (e *Engine) StatementStats() *stats.Statements { return e.stmts }

// Activity exposes the in-flight query registry behind GET /stats/activity;
// Activity().Cancel(id) kills a running query from outside.
func (e *Engine) Activity() *stats.Activity { return e.activity }

// FlightRecorder exposes the recently-completed-query ring behind
// GET /debug/flight.
func (e *Engine) FlightRecorder() *stats.Flight { return e.flight }

// NoteShed attributes an admission-control rejection to the statement that
// was shed: the query never reached evaluation, so the server reports it
// here for the statement sheet and flight recorder.
func (e *Engine) NoteShed(ctx context.Context, src string) {
	e.record(stats.Observation{
		Fingerprint: query.FingerprintText(src),
		Text:        src,
		RequestID:   obs.RequestIDFrom(ctx),
		Start:       time.Now(),
		Outcome:     stats.OutcomeShed,
	})
}

// classifyOutcome maps an evaluation error to its statement-stats outcome.
// killed reports whether an external kill was delivered (its cancellation
// surfaces as context.Canceled, so it is checked first).
func classifyOutcome(err error, killed bool) stats.Outcome {
	switch {
	case err == nil:
		return stats.OutcomeOK
	case errors.Is(err, govern.ErrBudgetExceeded):
		return stats.OutcomeBudget
	case killed:
		return stats.OutcomeKilled
	case errors.Is(err, context.DeadlineExceeded):
		return stats.OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return stats.OutcomeCanceled
	default:
		return stats.OutcomeError
	}
}

// record feeds one completed query to every sink from its one record: the
// optimizer's drift EWMAs, the statement and planner sheets, and the flight
// recorder.
func (e *Engine) record(o stats.Observation) {
	for _, n := range o.Nodes {
		e.opt.ObserveNode(n.Strategy, n.PredictedNs, float64(n.ActualNs))
	}
	e.stmts.Record(o)
	e.flight.Record(o)
}
