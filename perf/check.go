package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	sealib "repro"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/mutate"
	"repro/internal/query"
)

// answer is the part of a search outcome the correctness gate compares.
type answer struct {
	Found     bool           `json:"found"`
	Community []graph.NodeID `json:"community,omitempty"`
	Delta     float64        `json:"delta"`
}

// answerOf reduces an outcome to an answer; a no-community error is the
// answer "none", any other error stays an error.
func answerOf(out *query.Outcome, err error) (answer, error) {
	if errors.Is(err, cserr.ErrNoCommunity) {
		return answer{}, nil
	}
	if err != nil {
		return answer{}, err
	}
	return answer{Found: true, Community: out.Community, Delta: out.Delta}, nil
}

func (r result) answer() answer {
	return answer{Found: r.found, Community: r.community, Delta: r.delta}
}

// diff describes how got differs from want ("" when they are the same
// answer: both no community, or the same community with the same δ).
func diff(got, want answer) string {
	switch {
	case got.Found != want.Found:
		return fmt.Sprintf("found=%v, reference found=%v", got.Found, want.Found)
	case !slices.Equal(got.Community, want.Community):
		return fmt.Sprintf("community of %d nodes, reference %d nodes", len(got.Community), len(want.Community))
	case got.Delta != want.Delta:
		return fmt.Sprintf("δ=%v, reference δ=%v", got.Delta, want.Delta)
	}
	return ""
}

// reference answers req with the library's one-shot entry point on g —
// no engine, no caches, no snapshot — the independent answer the served
// one must equal.
func reference(g *graph.Graph, req query.Request) (answer, error) {
	return answerOf(sealib.Execute(context.Background(), g, req))
}

// checked is a served answer kept for the gate.
type checked struct {
	req query.Request
	got answer
}

// gate collects correctness failures.
type gate struct {
	failures []string
	checked  int // answers compared with a reference
}

func (g *gate) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.failures) == 0 }

// checkFailures fails the gate when any request of a load phase failed: a
// request turned into a fast error must not pass as a faster run.
func (g *gate) checkFailures(what string, s summary) {
	if s.failed > 0 {
		g.failf("%d of %d %s requests failed: %v", s.failed, s.attempted, what, s.classes)
	}
}

// spread returns up to limit of xs, evenly spread over it.
func spread[T any](xs []T, limit int) []T {
	if len(xs) <= limit {
		return xs
	}
	out := make([]T, limit)
	for i := range out {
		out[i] = xs[i*len(xs)/limit]
	}
	return out
}

// checkSampled compares up to limit successful ops of kind, evenly spread
// over the run, with ref: a /search by its answer, a /batch or /compare by
// each item's answer to its own request.
func (g *gate) checkSampled(r run, kind opKind, limit int, ref func(query.Request) (answer, error)) {
	var done []result
	for _, res := range r.results {
		if res.kind == kind && res.class == "" {
			done = append(done, res)
		}
	}
	var items []checked
	for _, res := range spread(done, limit) {
		o := r.ops[res.stream][res.idx]
		if kind == opSearch {
			items = append(items, checked{req: o.req, got: res.answer()})
			continue
		}
		reqs := o.batchRequests()
		if kind == opCompare {
			reqs = o.compareRequests()
		}
		if len(res.items) != len(reqs) {
			g.failf("%s q=%d: %d items for %d requests", kind, o.req.Query, len(res.items), len(reqs))
			continue
		}
		for i, req := range reqs {
			items = append(items, checked{req: req, got: res.items[i]})
		}
	}
	g.checkAgainst(kind.String(), items, ref)
}

// checkPinned is the in-run gate of a write workload, where the graph
// moves under the searches. It replays the run's acknowledged commits, in
// version order, on start, the graph the run began from at version
// startVersion, and checks up to limit version-pinned /search answers
// (see pinVersions) against the reference search on the graph of their
// version. It returns the graph after every acknowledged commit, or nil
// when the replay failed.
//
// Concurrent commits that flushed together share a version. Their order
// within the batch is not known, but it does not matter: each write stream
// toggles its own pairs and sets attributes of its own nodes.
func (g *gate) checkPinned(start *graph.Graph, startVersion uint64, r run, limit int) *graph.Graph {
	type commit struct {
		version uint64
		delta   mutate.Delta
	}
	type pinned struct {
		version uint64
		checked
	}
	var commits []commit
	var pins []pinned
	for _, res := range r.results {
		if res.class != "" {
			continue
		}
		o := r.ops[res.stream][res.idx]
		switch {
		case res.kind == opMutate:
			commits = append(commits, commit{res.version, o.delta})
		case res.kind == opSearch && res.pinned:
			pins = append(pins, pinned{res.version, checked{req: o.req, got: res.answer()}})
		}
	}
	if len(pins) == 0 {
		g.failf("no /search answer was pinned to a version")
	}
	sort.SliceStable(commits, func(i, j int) bool { return commits[i].version < commits[j].version })
	pins = spread(pins, limit)
	sort.SliceStable(pins, func(i, j int) bool { return pins[i].version < pins[j].version })

	cur := start
	sess := mutate.NewSession(cur, kcore.Decompose(cur), nil)
	pending, next := false, 0
	// advance applies every commit up to version v and materializes the
	// graph they leave.
	advance := func(v uint64) bool {
		for ; next < len(commits) && commits[next].version <= v; next++ {
			c := commits[next]
			if c.version <= startVersion {
				g.failf("commit acknowledged at version %d, not after the start version %d", c.version, startVersion)
				return false
			}
			if err := sess.Apply(c.delta); err != nil {
				g.failf("replaying the commit acknowledged at version %d: %v", c.version, err)
				return false
			}
			pending = true
		}
		if pending {
			cur = sess.Materialize()
			sess = mutate.NewSession(cur, sess.Core(), nil)
			pending = false
		}
		return true
	}
	for _, p := range pins {
		if !advance(p.version) {
			return nil
		}
		at := cur
		g.checkAgainst(fmt.Sprintf("search at version %d", p.version), []checked{p.checked},
			func(req query.Request) (answer, error) { return reference(at, req) })
	}
	if !advance(^uint64(0)) {
		return nil
	}
	return cur
}

// checkAgainst compares each served answer with ref's answer to the same
// request.
func (g *gate) checkAgainst(what string, items []checked, ref func(query.Request) (answer, error)) {
	for _, it := range items {
		g.checked++
		want, err := ref(it.req)
		if err != nil {
			g.failf("%s q=%d: reference failed: %v", what, it.req.Query, err)
			continue
		}
		if d := diff(it.got, want); d != "" {
			g.failf("%s q=%d seed=%d: %s", what, it.req.Query, it.req.Seed, d)
		}
	}
}

// sameGraph reports the first difference between two graphs' structure and
// attributes ("" when identical). Text attributes compare by token name, so
// two dictionaries that numbered tokens differently still agree.
func sameGraph(a, b graph.Store) string {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("%d nodes/%d edges vs %d nodes/%d edges", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	var bufA, bufB []graph.NodeID
	for v := graph.NodeID(0); int(v) < a.NumNodes(); v++ {
		if !slices.Equal(a.NeighborsInto(&bufA, v), b.NeighborsInto(&bufB, v)) {
			return fmt.Sprintf("neighbors of node %d differ", v)
		}
		if !slices.Equal(a.NumAttrs(v), b.NumAttrs(v)) {
			return fmt.Sprintf("numeric attributes of node %d differ", v)
		}
		if !slices.Equal(tokenNames(a, v), tokenNames(b, v)) {
			return fmt.Sprintf("text attributes of node %d differ", v)
		}
	}
	return ""
}

func tokenNames(g graph.Store, v graph.NodeID) []string {
	ids := g.TextAttrs(v)
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = g.Dict().Name(id)
	}
	slices.Sort(names)
	return names
}

// checkLedger verifies that g holds exactly the acknowledged state of every
// stream's owned pairs: an edge where the last acknowledged toggle added
// one, none where it removed it or none was ever acknowledged.
func (gt *gate) checkLedger(g graph.Adjacency, gens []*gen) {
	for _, gn := range gens {
		for i, p := range gn.pairs {
			if g.HasEdge(p.u, p.v) != gn.present[i] {
				gt.failf("stream %d pair (%d,%d): edge present=%v, acknowledged present=%v",
					gn.stream, p.u, p.v, g.HasEdge(p.u, p.v), gn.present[i])
			}
		}
	}
}
