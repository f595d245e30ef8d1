package core

import (
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/stats"
)

// Planner-accuracy wiring: after a query succeeds, every optimizer-priced
// plan node is joined with its measured wall time and output size and
// carried on the query's completed record, which feeds the per-fingerprint
// accuracy sheet behind GET /stats/planner and the optimizer's drift EWMAs;
// when recalibration is enabled the optimizer then gets a chance to adopt
// observed constants between queries.

// WithOptimizerConstants pins the optimizer's (Ts, Tm, TI) machine
// constants, skipping the startup micro-probe: reproducible plan choices
// across runners, and the manual escape hatch when drift detection fires.
func WithOptimizerConstants(c optimizer.Constants) Option {
	return func(cfg *Config) { cfg.OptimizerConstants = &c }
}

// WithRecalibration enables online constant recalibration (default off):
// the optimizer adopts EWMA-smoothed observed constants with a bounded step
// per adoption, never mid-query.
func WithRecalibration(rc optimizer.RecalConfig) Option {
	return func(cfg *Config) {
		rc.Enabled = true
		cfg.Recalibrate = &rc
	}
}

// WithNearMarginBand overrides the decision-audit band: decisions whose
// margin falls below the band are flagged near-margin (0 = default 1.5×).
func WithNearMarginBand(band float64) Option {
	return func(cfg *Config) { cfg.NearMarginBand = band }
}

// auditedNodes extracts every optimizer-priced node of an executed plan,
// joined with its measured wall time and output size.
func auditedNodes(plan *query.Plan) []stats.NodeObservation {
	var nodes []stats.NodeObservation
	plan.Walk(func(n *query.Node) {
		if n.PredictedNs <= 0 && n.OutJoin <= 0 {
			return
		}
		nodes = append(nodes, stats.NodeObservation{
			Op: n.Op, Strategy: n.Strategy,
			PredictedNs: n.PredictedNs, ActualNs: n.TimeNs,
			EstRows: n.EstRows, Rows: n.Rows,
			Margin: n.Margin, NearMargin: n.NearMargin,
			Delta1: n.Delta1, Delta2: n.Delta2,
		})
	})
	return nodes
}
