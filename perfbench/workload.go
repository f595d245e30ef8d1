package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"

	"repro/internal/dataset"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// workloads.json is the single record of what each workload runs and why:
// relation sizes, client count and loop type, fsync and checkpoint policy,
// and the optimizer constants pinned so the MM-vs-WCOJ choice does not
// depend on the engine's startup probe.
//
//go:embed workloads.json
var specJSON []byte

type spec struct {
	Constants optimizer.Constants `json:"optimizer_constants_ns"`
	Workloads []workloadSpec      `json:"workloads"`
}

type workloadSpec struct {
	Name            string     `json:"name"`
	Why             string     `json:"why"`
	RelationPairs   int        `json:"relation_pairs"`
	Clients         int        `json:"clients"`
	Loop            string     `json:"loop"`
	Durable         bool       `json:"durable"`
	Fsync           string     `json:"fsync"`
	CheckpointEvery int        `json:"checkpoint_every"`
	BatchPairs      int        `json:"batch_pairs"`
	Mutated         []string   `json:"mutated_relations"`
	Views           []viewSpec `json:"views"`
	Queries         []string   `json:"queries"`
	Mix             struct {
		Query    int `json:"query"`
		Mutate   int `json:"mutate"`
		ViewRead int `json:"view_read"`
	} `json:"mix_percent"`
}

type viewSpec struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("parsing workloads.json: %w", err)
	}
	return &s, nil
}

func (s *spec) workload(name string) (*workloadSpec, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// relationNames are the catalog relations every workload registers.
var relationNames = []string{"R", "S", "T", "U", "V"}

// buildRelations generates the workload's relations. They depend only on the
// relation size, never on the run seed, so every run of a workload serves
// the same data and the seed varies only the op sequence.
func buildRelations(n int) map[string][]relation.Pair {
	rels := make(map[string][]relation.Pair, len(relationNames))
	for i, name := range relationNames {
		rels[name] = dataset.Community(n, 24+4*i, int64(101+i)).Pairs()
	}
	return rels
}

type opKind int

const (
	opQuery opKind = iota
	opMutate
	opViewRead
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"query", "mutate", "view_read"}[k]
}

// op is one pre-generated client request. The request body is encoded before
// the timed window so the program receives only the generated inputs.
type op struct {
	kind  opKind
	index int // query index (opQuery) or view index (opViewRead)
	// Mutation batches: the relation, direction and pairs.
	rel   string
	del   bool
	pairs []relation.Pair
	path  string
	body  []byte
}

// opsPerClientSecond sizes the pre-generated sequences well above any rate a
// client reaches; a read client that runs out wraps around, a write client
// that runs out fails the run.
const opsPerClientSecond = 1000

// generateOps builds each client's op sequence from the seed. Client c only
// touches pairs it owns (ownerOf(p) == c), and every insert adds pairs absent
// at that point of c's sequence and every delete removes pairs present, so
// each batch changes exactly BatchPairs tuples however the clients
// interleave.
func generateOps(w *workloadSpec, rels map[string][]relation.Pair, seed int64, seconds int) [][]op {
	n := seconds * opsPerClientSecond
	queries := make([]op, len(w.Queries))
	for i := range queries {
		queries[i] = queryOp(w, i)
	}
	seqs := make([][]op, w.Clients)
	for c := range seqs {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)))
		owned := newOwnedPairs(w, rels, c)
		seq := make([]op, 0, n)
		for len(seq) < n {
			roll := rng.IntN(100)
			switch {
			case roll < w.Mix.Query:
				seq = append(seq, queries[rng.IntN(len(queries))])
			case roll < w.Mix.Query+w.Mix.Mutate:
				seq = append(seq, owned.batch(rng))
			default:
				seq = append(seq, viewOp(w, rng.IntN(len(w.Views))))
			}
		}
		seqs[c] = seq
	}
	return seqs
}

func (o *op) method() string {
	if o.kind == opViewRead {
		return http.MethodGet
	}
	return http.MethodPost
}

func queryOp(w *workloadSpec, i int) op {
	body, _ := json.Marshal(map[string]string{"query": w.Queries[i]}) // cannot fail on a string map
	return op{kind: opQuery, index: i, path: "/query", body: body}
}

func viewOp(w *workloadSpec, i int) op {
	return op{kind: opViewRead, index: i, path: "/views/" + w.Views[i].Name}
}

// ownedPairs tracks, while generating one client's sequence, which of that
// client's pairs are present in each mutated relation.
type ownedPairs struct {
	w       *workloadSpec
	client  int
	block   int32 // users per community, as dataset.Community lays them out
	blocks  int32
	present map[string]map[relation.Pair]int // pair -> index in list
	list    map[string][]relation.Pair
	initial map[string]int // owned pairs present at the start
}

func ownerOf(p relation.Pair, clients int) int {
	return int(uint32(p.X*31+p.Y) % uint32(clients))
}

func newOwnedPairs(w *workloadSpec, rels map[string][]relation.Pair, client int) *ownedPairs {
	o := &ownedPairs{
		w: w, client: client,
		present: map[string]map[relation.Pair]int{},
		list:    map[string][]relation.Pair{},
		initial: map[string]int{},
	}
	var maxUser int32
	for _, name := range w.Mutated {
		set := map[relation.Pair]int{}
		for _, p := range rels[name] {
			maxUser = max(maxUser, p.X, p.Y)
			if ownerOf(p, w.Clients) == client {
				set[p] = len(o.list[name])
				o.list[name] = append(o.list[name], p)
			}
		}
		o.present[name] = set
		o.initial[name] = len(set)
	}
	o.block = max(2, int32(math.Sqrt(float64(w.RelationPairs))))
	o.blocks = maxUser/o.block + 1
	return o
}

func (o *ownedPairs) batch(rng *rand.Rand) op {
	name := o.w.Mutated[rng.IntN(len(o.w.Mutated))]
	// Deleting above the starting size and inserting below it keeps every
	// relation within one batch of its starting size however long the run.
	n, n0 := len(o.list[name]), o.initial[name]
	del := n > n0 || (n == n0 && rng.IntN(2) == 0)
	set := o.present[name]
	pairs := make([]relation.Pair, 0, o.w.BatchPairs)
	for len(pairs) < o.w.BatchPairs {
		if del {
			l := o.list[name]
			p := l[rng.IntN(len(l))]
			o.remove(name, p)
			pairs = append(pairs, p)
			continue
		}
		// Inserts stay inside one community block, so they touch the joins.
		b := rng.Int32N(o.blocks) * o.block
		p := relation.Pair{X: b + rng.Int32N(o.block), Y: b + rng.Int32N(o.block)}
		if p.X == p.Y || ownerOf(p, o.w.Clients) != o.client {
			continue
		}
		if _, ok := set[p]; ok {
			continue
		}
		set[p] = len(o.list[name])
		o.list[name] = append(o.list[name], p)
		pairs = append(pairs, p)
	}
	verb := "insert"
	if del {
		verb = "delete"
	}
	return op{
		kind: opMutate, rel: name, del: del, pairs: pairs,
		path: "/catalog/relations/" + name + "/" + verb,
		body: encodePairs(pairs),
	}
}

func (o *ownedPairs) remove(name string, p relation.Pair) {
	set, l := o.present[name], o.list[name]
	i := set[p]
	last := l[len(l)-1]
	l[i] = last
	set[last] = i
	o.list[name] = l[:len(l)-1]
	delete(set, p)
}

func encodePairs(ps []relation.Pair) []byte {
	xy := make([][2]int32, len(ps))
	for i, p := range ps {
		xy[i] = [2]int32{p.X, p.Y}
	}
	b, _ := json.Marshal(map[string][][2]int32{"pairs": xy}) // cannot fail on integers
	return b
}
