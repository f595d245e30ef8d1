package stats

import (
	"sync"
	"time"
)

// FlightRecord is one retained query trace: enough to reconstruct what a
// completed query did after the fact, including its full analyzed plan tree.
type FlightRecord struct {
	Seq         uint64  `json:"seq"`
	RequestID   string  `json:"request_id,omitempty"`
	Fingerprint string  `json:"fingerprint"`
	Query       string  `json:"query"`
	Outcome     Outcome `json:"outcome"`
	// Class is why the record was retained: "slow", an error-family outcome
	// (error/budget/killed/timeout/canceled/shed), or "sampled" for the 1-in-N
	// unremarkable keeps.
	Class     string  `json:"class"`
	StartUnix int64   `json:"start_unix_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Rows      int64   `json:"rows"`
	Bytes     int64   `json:"budget_bytes"`
	CacheHit  bool    `json:"cache_hit"`
	Error     string  `json:"error,omitempty"`
	// Plan is the EXPLAIN ANALYZE rendering of the executed plan, empty for
	// queries that never ran (shed, parse errors).
	Plan string `json:"plan,omitempty"`
}

// Flight recorder defaults: ring capacity, sampling rate for unremarkable
// queries, and the latency past which every query is retained as "slow".
const (
	DefaultFlightSize    = 256
	DefaultFlightSample  = 16
	DefaultSlowThreshold = 100 * time.Millisecond
)

// Flight is the query flight recorder: a bounded ring of recently completed
// query traces. Slow, error, budget-tripped, killed and shed queries are
// always retained; the unremarkable majority is sampled 1-in-N so the ring
// still shows the workload's normal shape. All methods are safe for
// concurrent use.
type Flight struct {
	mu      sync.Mutex
	ring    []FlightRecord
	next    int // ring write index
	n       int // live records (≤ len(ring))
	seq     uint64
	passed  uint64 // unremarkable completions seen, for sampling
	sample  int
	slow    time.Duration
	dropped uint64
}

// NewFlight returns a recorder with the given ring capacity, sampling every
// sample-th unremarkable query, and treating queries at or above slow as
// always-retain. Zero or negative arguments take the defaults.
func NewFlight(size, sample int, slow time.Duration) *Flight {
	if size <= 0 {
		size = DefaultFlightSize
	}
	if sample <= 0 {
		sample = DefaultFlightSample
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	return &Flight{ring: make([]FlightRecord, size), sample: sample, slow: slow}
}

// SlowThreshold returns the always-retain latency threshold.
func (f *Flight) SlowThreshold() time.Duration { return f.slow }

// Record offers one completed query to the recorder. The flight record is
// built, and o.Plan called, only if the query is retained (rendering an
// analyzed plan tree costs allocations the sampled-out majority should not
// pay). It reports whether the record was kept.
func (f *Flight) Record(o Observation) bool {
	class := ""
	switch {
	case o.Outcome != OutcomeOK:
		class = string(o.Outcome)
	case o.Elapsed >= f.slow:
		class = "slow"
	}

	f.mu.Lock()
	if class == "" {
		// Unremarkable: keep the first and every sample-th after it, so a
		// freshly booted server's first query is always visible.
		if f.passed%uint64(f.sample) != 0 {
			f.passed++
			f.dropped++
			f.mu.Unlock()
			flightSampledOut.Inc()
			return false
		}
		f.passed++
		class = "sampled"
	}
	f.seq++
	rec := FlightRecord{
		Seq:         f.seq,
		RequestID:   o.RequestID,
		Fingerprint: o.Fingerprint,
		Query:       o.Text,
		Outcome:     o.Outcome,
		Class:       class,
		StartUnix:   o.Start.UnixMilli(),
		ElapsedMs:   float64(o.Elapsed.Nanoseconds()) / 1e6,
		Rows:        o.Rows,
		Bytes:       o.Bytes,
		CacheHit:    o.CacheHit,
	}
	if o.Err != nil {
		rec.Error = o.Err.Error()
	}
	if o.Plan != nil {
		rec.Plan = o.Plan()
	}
	f.ring[f.next] = rec
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
	flightRecords.With(class).Inc()
	return true
}

// Snapshot returns the retained records, newest first, truncated to limit
// (0 or negative: all).
func (f *Flight) Snapshot(limit int) []FlightRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]FlightRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (f.next - 1 - i + 2*len(f.ring)) % len(f.ring)
		out = append(out, f.ring[idx])
	}
	return out
}

// SampledOut returns how many unremarkable completions were dropped, for
// the /debug/flight envelope ("what you are not seeing").
func (f *Flight) SampledOut() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}
