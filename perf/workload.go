package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sea"
)

// Request parameters shared by every workload: SEA over the k-core model
// with k=6, the structural setting the serving stack is sized for.
const (
	searchK     = 6
	batchSize   = 8    // queries per /batch on search-hot
	zipfS       = 1.3  // query-node skew on search-hot
	pairsPerCl  = 64   // non-edges each write-mixed client owns
	tagsPerCl   = 8    // distinct set_attr tags per client (bounds the token dictionary)
	probeCount  = 12   // fixed probe requests compared across primary, reference and reboot
	warmHotOps  = 400  // search-hot warm-up requests
	warmStream  = 100  // stream id of the warm-up generator
	probeStream = 1000 // stream id of the probe-set draw
	pairStream  = 1001 // stream id of the owned-pair draw
	writeProbe  = 1002 // stream id of the traced run's write probe on read workloads
)

// workload is one traffic mix over one generated dataset.
type workload struct {
	name    string
	dataset string
	scale   float64
	// clients > 0 drives a closed loop with that many clients; otherwise
	// the workload is an open loop at rate requests per second.
	clients int
	rate    float64
	// journaled mounts the dataset with a write-ahead journal (fsync on
	// every commit) and ends the run with a reboot from its files.
	journaled bool
	// warm draws the requests each set-up sends before timing starts.
	warm func(g *gen) []op
	// next draws a client's next request.
	next func(g *gen) op
}

var workloads = []*workload{
	{name: "search-cold", dataset: "livejournal", scale: 0.25, clients: 2, warm: warmCold, next: nextCold},
	{name: "search-hot", dataset: "facebook", scale: 1, rate: 300, warm: warmHot, next: nextHot},
	{name: "write-mixed", dataset: "livejournal", scale: 0.25, clients: 2, journaled: true, warm: warmWrite, next: nextWrite},
}

// warmCold opens the connections and runs the serving path with a few
// structural searches. A cold workload's caches have nothing to hold for
// it, and cheap requests keep set-up time from depending on which nodes a
// seed draws.
func warmCold(g *gen) []op {
	ops := make([]op, 8)
	for i := range ops {
		ops[i] = op{kind: opSearch, pair: -1, req: query.Request{
			Query: graph.NodeID(g.rng.Intn(g.n)), Method: query.MethodStructural, K: searchK, Graph: g.graph,
		}}
	}
	return ops
}

// warmHot sends warmHotOps requests of the workload's own mix from a
// stream of its own, so the hottest nodes' answers are cached before
// timing starts. (Filling the cache with every node instead leaves a p99
// set by the host's millisecond stalls, which varied threefold between
// runs.)
func warmHot(g *gen) []op {
	ops := make([]op, warmHotOps)
	for i := range ops {
		ops[i] = nextHot(g)
	}
	return ops
}

// warmWrite is warmCold plus one set_attr commit, which seeds the engine's
// per-edge truss table (the first commit after mount builds it).
func warmWrite(g *gen) []op { return append(warmCold(g), g.mutation()) }

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streams is the number of request streams the measured run uses: one per
// closed-loop client, one for an open loop.
func (w *workload) streams() int {
	if w.clients > 0 {
		return w.clients
	}
	return 1
}

// spec returns the dataset profile of w with its generator seeded by seed,
// so every workload seed yields its own graph.
func (w *workload) spec(seed int64) (dataset.Spec, error) {
	d, err := dataset.Homogeneous(w.dataset, w.scale)
	if err != nil {
		return dataset.Spec{}, err
	}
	s := d.Spec
	s.Seed = seed
	return s, nil
}

type opKind int

const (
	opSearch opKind = iota
	opBatch
	opCompare
	opMutate
	numOpKinds
)

var opNames = [numOpKinds]string{"search", "batch", "compare", "mutate"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request.
type op struct {
	kind opKind
	// req is the /search and /compare request, and the shared parameters
	// of a /batch (its Query unused).
	req   query.Request
	nodes []graph.NodeID // /batch query nodes
	delta mutate.Delta   // /admin/mutate: the one-delta group
	pair  int            // index of the toggled owned pair; -1 for other ops
}

func (o op) path() string {
	switch o.kind {
	case opBatch:
		return "/batch"
	case opCompare:
		return "/compare"
	case opMutate:
		return "/admin/mutate"
	}
	return "/search"
}

// compareMethods are the methods every /compare request runs side by side.
var compareMethods = []string{"sea", "structural"}

func (o op) body() []byte {
	var v any
	switch o.kind {
	case opSearch:
		v = o.req
	case opBatch:
		v = struct {
			Graph   string         `json:"graph"`
			Queries []graph.NodeID `json:"queries"`
			Method  query.Method   `json:"method"`
			K       int            `json:"k"`
		}{o.req.Graph, o.nodes, o.req.Method, o.req.K}
	case opCompare:
		v = struct {
			Graph   string       `json:"graph"`
			Q       graph.NodeID `json:"q"`
			Methods []string     `json:"methods"`
			K       int          `json:"k"`
		}{o.req.Graph, o.req.Query, compareMethods, o.req.K}
	case opMutate:
		v = struct {
			Graph  string         `json:"graph"`
			Deltas []mutate.Delta `json:"deltas"`
		}{o.req.Graph, []mutate.Delta{o.delta}}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding %s request: %v", o.kind, err)) // plain structs always encode
	}
	return b
}

// batchRequests expands a /batch op into its per-query requests, as the
// server does.
func (o op) batchRequests() []query.Request {
	reqs := make([]query.Request, len(o.nodes))
	for i, q := range o.nodes {
		reqs[i] = o.req
		reqs[i].Query = q
	}
	return reqs
}

// compareRequests expands a /compare op into its per-method requests.
func (o op) compareRequests() []query.Request {
	reqs := make([]query.Request, len(compareMethods))
	for i, name := range compareMethods {
		m, _ := query.ParseMethod(name)
		reqs[i] = o.req
		reqs[i].Method = m
	}
	return reqs
}

// pairEdge is an unordered node pair that is not an edge of the generated
// graph; exactly one write-mixed client toggles it.
type pairEdge struct{ u, v graph.NodeID }

// gen is one request stream. Its draws depend only on the workload seed,
// the stream id and the acknowledgements it has seen, so the same seed
// replays the same request sequence.
type gen struct {
	graph  string
	n      int
	stream int
	seq    int
	rng    *rand.Rand
	zipf   *rand.Zipf
	// peers is the number of streams that run together, this one included
	// (0 or 1: it runs alone); stream s sets attributes only on nodes
	// ≡ s mod peers.
	peers int
	// pairs is the stream's owned non-edges and present the ledger of which
	// of them are currently edges (as acknowledged by the server).
	pairs   []pairEdge
	present []bool
}

func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

func newGen(graphName string, n int, seed int64, stream int, pairs []pairEdge) *gen {
	rng := streamRNG(seed, stream)
	return &gen{
		graph: graphName, n: n, stream: stream, rng: rng,
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
		pairs: pairs, present: make([]bool, len(pairs)),
	}
}

// searchSeed gives every request of every stream its own SEA seed, so no two
// cold requests share a result-cache key.
func (g *gen) searchSeed() int64 { return int64(g.stream+1)<<32 | int64(g.seq) }

func (g *gen) coldSearch(model sea.Model) op {
	return op{kind: opSearch, pair: -1, req: query.Request{
		Query: graph.NodeID(g.rng.Intn(g.n)), Method: query.MethodSEA, K: searchK,
		Model: model, Seed: g.searchSeed(), Graph: g.graph,
	}}
}

// nextCold: uniform query node, a fresh seed per request.
func nextCold(g *gen) op {
	g.seq++
	return g.coldSearch(sea.KCore)
}

// nextHot: seaload's read-heavy mix (80% /search, 15% /batch, 5% /compare)
// over zipf-skewed nodes with the default seed, so repeats hit the caches.
func nextHot(g *gen) op {
	g.seq++
	roll := g.rng.Intn(100)
	o := op{pair: -1, req: query.Request{Method: query.MethodSEA, K: searchK, Graph: g.graph}}
	switch {
	case roll < 80:
		o.kind = opSearch
		o.req.Query = graph.NodeID(g.zipf.Uint64())
	case roll < 95:
		o.kind = opBatch
		o.nodes = make([]graph.NodeID, batchSize)
		for i := range o.nodes {
			o.nodes[i] = graph.NodeID(g.zipf.Uint64())
		}
	default:
		o.kind = opCompare
		o.req.Query = graph.NodeID(g.zipf.Uint64())
	}
	return o
}

// nextWrite: 60% one-delta mutations, 40% cold searches of which a tenth
// use the k-truss model.
func nextWrite(g *gen) op {
	g.seq++
	if g.rng.Intn(100) < 60 {
		return g.mutation()
	}
	model := sea.KCore
	if g.rng.Intn(10) == 0 {
		model = sea.KTruss
	}
	return g.coldSearch(model)
}

// mutation draws a set_attr on a uniform node, or toggles one of the
// stream's owned pairs: add_edge when the ledger says absent, remove_edge
// when present. Only this stream touches its pairs, so every delta is valid
// by construction once the previous one was acknowledged.
func (g *gen) mutation() op {
	if len(g.pairs) == 0 || g.rng.Intn(2) == 0 {
		return g.setAttr()
	}
	i := g.rng.Intn(len(g.pairs))
	p := g.pairs[i]
	o := op{kind: opMutate, pair: i, req: query.Request{Graph: g.graph}}
	if g.present[i] {
		o.delta = mutate.RemoveEdge(p.u, p.v)
	} else {
		o.delta = mutate.AddEdge(p.u, p.v)
	}
	return o
}

// setAttr draws a set_attr on a uniform node of the stream's share. With
// the shares disjoint, two groups that commit in one batch never touch the
// same node, so a batch means the same in any order.
func (g *gen) setAttr() op {
	per := max(g.peers, 1)
	own := g.stream % per
	node := graph.NodeID(g.rng.Intn((g.n-own+per-1)/per)*per + own)
	tag := fmt.Sprintf("s%d-%d", g.stream, g.seq%tagsPerCl)
	return op{kind: opMutate, pair: -1, req: query.Request{Graph: g.graph},
		delta: mutate.SetAttr(node, []string{"bench", tag}, nil)}
}

// ack records that the server committed o.
func (g *gen) ack(o op) {
	if o.kind == opMutate && o.pair >= 0 {
		g.present[o.pair] = !g.present[o.pair]
	}
}

// ownedPairs draws per non-edges of g for each of streams streams: distinct
// unordered pairs, none an edge of g, none shared between streams.
func ownedPairs(g graph.Adjacency, seed int64, streams, per int) [][]pairEdge {
	rng := streamRNG(seed, pairStream)
	n := g.NumNodes()
	used := make(map[pairEdge]bool)
	out := make([][]pairEdge, streams)
	for s := range out {
		for len(out[s]) < per {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u > v {
				u, v = v, u
			}
			p := pairEdge{u, v}
			if u == v || used[p] || g.HasEdge(u, v) {
				continue
			}
			used[p] = true
			out[s] = append(out[s], p)
		}
	}
	return out
}

// probeRequests is the fixed probe set: structural and cold SEA searches
// (the paper's default seed) on the same uniform nodes.
func probeRequests(graphName string, n int, seed int64) []query.Request {
	rng := streamRNG(seed, probeStream)
	reqs := make([]query.Request, 2*probeCount)
	for i := 0; i < probeCount; i++ {
		q := graph.NodeID(rng.Intn(n))
		reqs[i] = query.Request{Query: q, Method: query.MethodStructural, K: searchK, Graph: graphName}
		reqs[probeCount+i] = query.Request{Query: q, Method: query.MethodSEA, K: searchK, Seed: 1, Graph: graphName}
	}
	return reqs
}
