package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wal"
)

// system is one engine served by server.Handler on a loopback listener.
type system struct {
	eng     *core.Engine
	handler http.Handler // server.Handler, which hs serves
	url     string
	hs      *http.Server
	served  chan error
}

// startSystem builds the engine the way joinmmd would for this workload,
// registers its relations and views and starts serving on 127.0.0.1.
// checkpointEvery ≤ 0 leaves checkpoints to explicit Engine.Checkpoint calls.
func startSystem(w *workloadSpec, consts optimizer.Constants, rels map[string][]relation.Pair, dir string, checkpointEvery int) (*system, error) {
	eng := core.NewEngine(core.WithOptimizerConstants(consts))
	if w.Durable {
		policy, err := wal.ParsePolicy(w.Fsync)
		if err != nil {
			return nil, err
		}
		if err := eng.Open(dir, core.PersistOptions{Fsync: policy, CheckpointEvery: checkpointEvery}); err != nil {
			return nil, err
		}
	}
	if err := populate(eng, w, rels); err != nil {
		_ = eng.Close() // the registration error is the one to report
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = eng.Close() // the listen error is the one to report
		return nil, err
	}
	srv := server.New(server.Config{Engine: eng, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s := &system{eng: eng, handler: srv.Handler(), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.handler}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// populate registers the workload's relations and views on eng.
func populate(eng *core.Engine, w *workloadSpec, rels map[string][]relation.Pair) error {
	for _, name := range relationNames {
		if _, err := eng.Register(name, rels[name]); err != nil {
			return fmt.Errorf("registering %s: %w", name, err)
		}
	}
	for _, v := range w.Views {
		if _, err := eng.RegisterView(context.Background(), v.Name, v.Query); err != nil {
			return fmt.Errorf("registering view %s: %w", v.Name, err)
		}
	}
	return nil
}

// stop shuts the listener down, waits for Serve to return and closes the
// engine's durability layer.
func (s *system) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends o and reads the whole reply; the body is valid until the next do.
func (c *client) do(o *op) (int, []byte, error) {
	req, err := http.NewRequest(o.method(), c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// checker validates replies. For the read workloads it holds the reference
// answer of each query; write_mix queries are checked for shape only, since
// their answers depend on how the two clients interleave.
type checker struct {
	w          *workloadSpec
	queryArity []int
	viewArity  []int
	refs       []answer // per query; nil when answers are not fixed
}

func newChecker(w *workloadSpec, refs []answer) (*checker, error) {
	ck := &checker{w: w, refs: refs}
	for _, q := range w.Queries {
		rq, err := parseRef(q)
		if err != nil {
			return nil, err
		}
		ck.queryArity = append(ck.queryArity, len(rq.head))
	}
	for _, v := range w.Views {
		rq, err := parseRef(v.Query)
		if err != nil {
			return nil, err
		}
		ck.viewArity = append(ck.viewArity, len(rq.head))
	}
	return ck, nil
}

type resultBody struct {
	Columns []string        `json:"columns"`
	Tuples  json.RawMessage `json:"tuples"`
	Rows    int             `json:"rows"`
}

// check validates one reply.
func (ck *checker) check(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", o.kind, o.path, status, body)
	}
	if o.kind == opMutate {
		var m struct{ Added, Removed int }
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("mutate %s: %w", o.path, err)
		}
		want := [2]int{len(o.pairs), 0}
		if o.del {
			want = [2]int{0, len(o.pairs)}
		}
		if got := [2]int{m.Added, m.Removed}; got != want {
			return fmt.Errorf("mutate %s: added/removed %v, want %v", o.path, got, want)
		}
		return nil
	}
	var r resultBody
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s %s: %w", o.kind, o.path, err)
	}
	got, err := digestTuples(r.Tuples, len(r.Columns))
	if err != nil {
		return fmt.Errorf("%s %s: %w", o.kind, o.path, err)
	}
	if got.rows != r.Rows {
		return fmt.Errorf("%s %s: rows=%d but %d tuples", o.kind, o.path, r.Rows, got.rows)
	}
	want := ck.queryArity
	if o.kind == opViewRead {
		want = ck.viewArity
	}
	if got.arity != want[o.index] {
		return fmt.Errorf("%s %s: arity %d, want %d", o.kind, o.path, got.arity, want[o.index])
	}
	if o.kind == opQuery && ck.refs != nil && got != ck.refs[o.index] {
		return fmt.Errorf("query %q: answer %+v, reference %+v", ck.w.Queries[o.index], got, ck.refs[o.index])
	}
	return nil
}

// digestTuples summarizes a JSON array of integer tuples, checking that every
// tuple has the given arity. It scans the bytes directly: decoding a wide
// reply into [][]int64 would cost the client more than the server spends
// encoding it.
func digestTuples(raw []byte, arity int) (answer, error) {
	a := answer{arity: arity}
	if string(raw) == "null" {
		return a, nil
	}
	tup := make([]int64, 0, arity)
	i, n := 0, len(raw)
	ws := func() {
		for i < n && (raw[i] == ' ' || raw[i] == '\n' || raw[i] == '\t' || raw[i] == '\r') {
			i++
		}
	}
	expect := func(c byte) error {
		ws()
		if i >= n || raw[i] != c {
			return fmt.Errorf("tuples: want %q at byte %d", c, i)
		}
		i++
		return nil
	}
	if err := expect('['); err != nil {
		return a, err
	}
	ws()
	if i < n && raw[i] == ']' {
		return a, nil
	}
	for {
		if err := expect('['); err != nil {
			return a, err
		}
		tup = tup[:0]
		for {
			ws()
			neg := i < n && raw[i] == '-'
			if neg {
				i++
			}
			start := i
			var v int64
			for i < n && raw[i] >= '0' && raw[i] <= '9' {
				v = v*10 + int64(raw[i]-'0')
				i++
			}
			if i == start {
				return a, fmt.Errorf("tuples: want a digit at byte %d", i)
			}
			if neg {
				v = -v
			}
			tup = append(tup, v)
			ws()
			if i < n && raw[i] == ',' {
				i++
				continue
			}
			if err := expect(']'); err != nil {
				return a, err
			}
			break
		}
		if len(tup) != arity {
			return a, fmt.Errorf("tuples: tuple %d has %d values, want %d", a.rows, len(tup), arity)
		}
		a.rows++
		a.digest += tupleHash(tup)
		ws()
		if i < n && raw[i] == ',' {
			i++
			continue
		}
		if err := expect(']'); err != nil {
			return a, err
		}
		return a, nil
	}
}

// sample is one correct op: when it completed, in seconds since the loop
// started, and its latency.
type sample struct {
	at   float64
	ms   float64
	kind opKind
}

// loopResult is what the clients of one closed loop saw.
type loopResult struct {
	samples   []sample // correct ops, in completion order
	attempted int
	failed    int
	errs      []error // the first few failures
	elapsed   time.Duration
	sent      []int // ops each client sent: a prefix of its sequence
	exhausted bool  // a client ran out of a sequence it may not wrap
}

func (r *loopResult) completed() int { return r.attempted - r.failed }

func (r *loopResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// closedLoop runs one goroutine per sequence, each sending its next op only
// after the previous reply arrived and was checked, until d has passed.
// Read-only sequences wrap around; a sequence with writes may not.
func closedLoop(url string, seqs [][]op, ck *checker, d time.Duration, wrap bool) *loopResult {
	parts := make([]loopResult, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			res := &parts[c]
			seq := seqs[c]
			for i := 0; time.Now().Before(deadline); i++ {
				if i >= len(seq) && !wrap {
					res.exhausted = true
					break
				}
				o := &seq[i%len(seq)]
				t0 := time.Now()
				status, body, err := cl.do(o)
				lat := time.Since(t0)
				res.attempted++
				if err == nil {
					err = ck.check(o, status, body)
				}
				if err != nil {
					res.fail(err)
					continue
				}
				res.samples = append(res.samples, sample{
					at: time.Since(start).Seconds(), ms: float64(lat.Nanoseconds()) / 1e6, kind: o.kind,
				})
			}
		}(c)
	}
	wg.Wait()
	out := &loopResult{elapsed: time.Since(start)}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.errs = append(out.errs, p.errs...)
		out.sent = append(out.sent, p.attempted)
		out.exhausted = out.exhausted || p.exhausted
	}
	slices.SortFunc(out.samples, func(a, b sample) int { return cmp.Compare(a.at, b.at) })
	return out
}

// latencies returns the latencies of the samples of one kind, in ms.
func latencies(ss []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range ss {
		if s.kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

// windows cuts the run into n equal windows of completion time and returns
// each window's samples and the window length in seconds.
func (r *loopResult) windows(n int) ([][]sample, float64) {
	width := r.elapsed.Seconds() / float64(n)
	out := make([][]sample, n)
	for _, s := range r.samples {
		i := min(n-1, int(s.at/width))
		out[i] = append(out[i], s)
	}
	return out, width
}
