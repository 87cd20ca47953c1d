package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	d, err := dataset.Homogeneous("facebook", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return d.Graph
}

// drain draws n ops from a fresh stream, acknowledging every mutation.
func drain(w *workload, g *graph.Graph, seed int64, stream, n int, pairs []pairEdge) []op {
	gn := newGen("fb", g.NumNodes(), seed, stream, pairs)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.next(gn)
		gn.ack(ops[i])
	}
	return ops
}

func TestSameSeedSameSequence(t *testing.T) {
	g := testGraph(t)
	for _, w := range workloads {
		pairs := ownedPairs(g, 7, 1, pairsPerCl)[0]
		a := drain(w, g, 7, 0, 500, pairs)
		b := drain(w, g, 7, 0, 500, pairs)
		c := drain(w, g, 8, 0, 500, ownedPairs(g, 8, 1, pairsPerCl)[0])
		differs := false
		for i := range a {
			if a[i].path() != b[i].path() || !bytes.Equal(a[i].body(), b[i].body()) {
				t.Fatalf("%s: op %d differs between two draws with the same seed", w.name, i)
			}
			differs = differs || !bytes.Equal(a[i].body(), c[i].body())
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 drew the same sequence", w.name)
		}
	}
}

func TestColdSearchesNeverShareACacheKey(t *testing.T) {
	g := testGraph(t)
	w, _ := workloadByName("search-cold")
	seen := make(map[query.Request]bool)
	for s := 0; s < 2; s++ {
		for _, o := range drain(w, g, 1, s, 2000, nil) {
			key := o.req.WithDefaults()
			if seen[key] {
				t.Fatalf("stream %d repeats request %+v", s, key)
			}
			seen[key] = true
		}
	}
}

func TestStructuralDeltasValid(t *testing.T) {
	g := testGraph(t)
	w, _ := workloadByName("write-mixed")
	const streams = 2
	pairs := ownedPairs(g, 3, streams, pairsPerCl)
	owner := make(map[pairEdge]int)
	for s, ps := range pairs {
		if len(ps) != pairsPerCl {
			t.Fatalf("stream %d owns %d pairs, want %d", s, len(ps), pairsPerCl)
		}
		for _, p := range ps {
			if p.u >= p.v || g.HasEdge(p.u, p.v) {
				t.Fatalf("owned pair %v is not an ordered non-edge", p)
			}
			if o, ok := owner[p]; ok {
				t.Fatalf("pair %v owned by streams %d and %d", p, o, s)
			}
			owner[p] = s
		}
	}
	// Interleave the streams' deltas and validate each as its own group
	// against everything before it.
	pf := mutate.NewPreflight(g)
	gens := []*gen{newGen("fb", g.NumNodes(), 3, 0, pairs[0]), newGen("fb", g.NumNodes(), 3, 1, pairs[1])}
	for _, gn := range gens {
		gn.peers = streams
	}
	structural := 0
	for i := 0; i < 3000; i++ {
		gn := gens[i%streams]
		o := w.next(gn)
		if o.kind != opMutate {
			continue
		}
		if o.pair >= 0 {
			structural++
			p := gn.pairs[o.pair]
			add := o.delta.Op == mutate.OpAddEdge
			if add == gn.present[o.pair] || mutate.EdgeOf(o.delta.U, o.delta.V) != mutate.EdgeOf(p.u, p.v) {
				t.Fatalf("stream %d emitted %v on pair %v with ledger present=%v", gn.stream, o.delta, p, gn.present[o.pair])
			}
		}
		if o.delta.Op == mutate.OpSetAttr && int(o.delta.U)%streams != gn.stream {
			t.Fatalf("stream %d set attributes of node %d, outside its share", gn.stream, o.delta.U)
		}
		if err := pf.Group([]mutate.Delta{o.delta}); err != nil {
			t.Fatalf("delta %v of stream %d invalid: %v", o.delta, gn.stream, err)
		}
		gn.ack(o)
	}
	if structural == 0 {
		t.Fatal("no structural deltas drawn")
	}
}

func TestQuantileAndRatioMath(t *testing.T) {
	seq := make([]float64, 100)
	for i := range seq {
		seq[100-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	cases := []struct {
		name      string
		got, want float64
	}{
		{"p50 of 1..4", quantile([]float64{4, 1, 3, 2}, 0.5), 2.5},
		{"p99 of 1..100", quantile(seq, 0.99), 99.01},
		{"p50 of 1..100", quantile(seq, 0.5), 50.5},
		{"p0", quantile(seq, 0), 1},
		{"p100", quantile(seq, 1), 100},
		{"single", quantile([]float64{7}, 0.99), 7},
		{"empty", quantile(nil, 0.5), 0},
		{"median odd", median([]float64{3, 1, 2}), 2},
		{"mean", mean([]float64{1, 2, 6}), 3},
		{"ratio", ratio(1, 4), 0.25},
		{"ratio of nothing", ratio(3, 0), 0},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if seq[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSummarize(t *testing.T) {
	ms := time.Millisecond
	// Every one-second part of a ten-second window holds the same six
	// operations, so each part's figures equal the whole window's.
	ops := []op{{req: query.Request{Query: 1}}, {req: query.Request{Query: 2}}, {req: query.Request{Query: 1}},
		{req: query.Request{Query: 3}}, {}, {}}
	part := []result{
		{kind: opSearch, idx: 0, lat: 2 * ms, found: true, delta: 0.2, satisfied: true},
		{kind: opSearch, idx: 1, lat: 4 * ms, found: true, delta: 0.4},
		{kind: opSearch, idx: 2, lat: 3 * ms, found: true, delta: 0.2}, // repeats op 0
		{kind: opSearch, idx: 3, lat: 6 * ms},                          // no community
		{kind: opMutate, idx: 4, lat: 1 * ms},
		{kind: opMutate, idx: 5, lat: 9 * ms, class: "http_5xx"},
	}
	r := run{window: tailParts * time.Second}
	var all []op
	for p := 0; p < tailParts; p++ {
		for _, res := range part {
			res.idx += len(all)
			res.at = time.Duration(p)*time.Second + time.Duration(res.idx)*ms
			r.results = append(r.results, res)
		}
		all = append(all, ops...)
	}
	r.ops = [][]op{all}
	rep := newReport()
	rep.endToEnd(summarize(r))
	for set, want := range map[*metrics]map[string]float64{
		rep.metrics: {
			"search_per_s":    4,
			"search_p50_ms":   3.5,
			"mix_p50_ms":      0.8*3.5 + 0.2*1, // four searches, one mutation succeeded
			"delta_mean":      0.3,             // distinct requests only
			"community_ratio": 0.75,
		},
		rep.extra: {
			"mutate_per_s":    1,
			"fail_ratio":      1.0 / 6,
			"guarantee_ratio": 1.0 / 3,
		},
	} {
		for k, v := range want {
			if got := set.vals[k].Value; math.Abs(got-v) > 1e-9 {
				t.Errorf("%s = %v, want %v", k, got, v)
			}
		}
	}
	if rep.attempted != 6*tailParts || rep.failed != tailParts || rep.errors["http_5xx"] != tailParts {
		t.Errorf("attempted/failed/classes = %d/%d/%v", rep.attempted, rep.failed, rep.errors)
	}
}

func TestFiguresAreTheMedianOfTheParts(t *testing.T) {
	// Three of ten parts are slow and hold one search each; the other
	// seven hold two fast searches each.
	r := run{window: tailParts * time.Second, ops: [][]op{make([]op, 20)}}
	for p := 0; p < tailParts; p++ {
		lats := []time.Duration{time.Millisecond, 3 * time.Millisecond}
		if p < 3 {
			lats = []time.Duration{time.Second}
		}
		for _, lat := range lats {
			r.results = append(r.results, result{kind: opSearch, idx: len(r.results), lat: lat,
				at: time.Duration(p) * time.Second})
		}
	}
	s := summarize(r)
	if got := s.p50(opSearch); got != 2 {
		t.Errorf("p50 = %v ms, want 2", got)
	}
	if got := s.rate(opSearch); got != 2 {
		t.Errorf("rate = %v/s, want 2", got)
	}
}

func TestFailedRequestFailsTheGate(t *testing.T) {
	r := run{window: time.Second, ops: [][]op{{{}, {}}}, results: []result{
		{kind: opSearch, idx: 0, lat: time.Millisecond, found: true},
		{kind: opSearch, idx: 1, lat: time.Millisecond},
	}}
	rep := newReport()
	rep.endToEnd(summarize(r))
	if !rep.gate.ok() {
		t.Fatalf("gate failed on a run without failures: %v", rep.gate.failures)
	}
	r.results[1].class = "shed_429"
	rep = newReport()
	rep.endToEnd(summarize(r))
	if rep.gate.ok() {
		t.Error("gate passed a run with a failed request")
	}
}

// TestPinnedCheckReplaysToTheAnsweringVersion pins that a write workload's
// searches are checked on the graph of the version that answered them.
func TestPinnedCheckReplaysToTheAnsweringVersion(t *testing.T) {
	g := testGraph(t)
	var q graph.NodeID
	req := func() query.Request { return query.Request{Query: q, Method: query.MethodSEA, K: 4, Seed: 1} }
	for ; int(q) < g.NumNodes(); q++ {
		if a, err := reference(g, req()); err == nil && a.Found {
			break
		}
	}
	pair := ownedPairs(g, 1, 1, 1)[0][0]
	edge, attrs := mutate.AddEdge(pair.u, pair.v), mutate.SetAttr(q, []string{"changed"}, nil)
	s := mutate.NewSession(g, make([]int32, g.NumNodes()), nil)
	for _, d := range []mutate.Delta{edge, attrs} {
		if err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Materialize()
	before, _ := reference(g, req())
	now, _ := reference(after, req())
	if diff(before, now) == "" {
		t.Fatal("the commits do not change the probe's answer")
	}
	ops := [][]op{{{kind: opSearch, req: req()}, {kind: opMutate, delta: edge}, {kind: opMutate, delta: attrs},
		{kind: opSearch, req: req()}}}
	results := func(last answer) []result {
		return []result{
			{kind: opSearch, idx: 0, found: true, community: before.Community, delta: before.Delta, version: 10, pinned: true},
			{kind: opMutate, idx: 1, version: 11},
			{kind: opMutate, idx: 2, version: 12},
			{kind: opSearch, idx: 3, found: last.Found, community: last.Community, delta: last.Delta, version: 12, pinned: true},
		}
	}
	var ok gate
	end := ok.checkPinned(g, 10, run{ops: ops, results: results(now)}, maxChecked)
	if !ok.ok() {
		t.Fatalf("gate failed on answers of their own versions: %v", ok.failures)
	}
	if end == nil || sameGraph(end, after) != "" {
		t.Error("the replay did not end at the graph after both commits")
	}
	var stale gate
	stale.checkPinned(g, 10, run{ops: ops, results: results(before)}, maxChecked)
	if len(stale.failures) != 1 {
		t.Errorf("an answer of version 10 reported at version 12: %d failures, want 1", len(stale.failures))
	}
}

func TestTailIsTheMedianOfThePartsP99(t *testing.T) {
	r := run{window: tailParts * time.Second, ops: [][]op{make([]op, tailParts*100)}}
	for part := 0; part < tailParts; part++ {
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if i == 99 {
				// Every part's p99 interpolates towards its one slow
				// request; part 0's is far slower than the rest.
				lat = time.Duration(part+2) * time.Millisecond
				if part == 0 {
					lat = time.Second
				}
			}
			r.results = append(r.results, result{kind: opSearch, idx: part*100 + i,
				at: time.Duration(part)*time.Second + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	// Part p (p ≥ 1) has p99 = 1 + 0.01·(p+1) ms; the median of the nine
	// fast parts and the slow one is the mean of parts 5 and 6.
	want := (1 + 0.01*6 + 1 + 0.01*7) / 2
	if got := summarize(r).p99(opSearch); math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
}

// TestGateFailsOnPerturbedReference pins that the gate compares what it
// claims to: the served answer passes against the true reference and fails
// against any perturbed one.
func TestGateFailsOnPerturbedReference(t *testing.T) {
	g := testGraph(t)
	var items []checked
	for q := graph.NodeID(0); len(items) < 3 && int(q) < g.NumNodes(); q++ {
		req := query.Request{Query: q, Method: query.MethodSEA, K: 4, Seed: 1}
		a, err := reference(g, req)
		if err != nil {
			t.Fatal(err)
		}
		if a.Found {
			items = append(items, checked{req: req, got: a})
		}
	}
	if len(items) == 0 {
		t.Fatal("no query node has a community")
	}
	var ok gate
	ok.checkAgainst("search", items, func(req query.Request) (answer, error) { return reference(g, req) })
	if !ok.ok() {
		t.Fatalf("gate failed on the true reference: %v", ok.failures)
	}
	perturb := map[string]func(answer) answer{
		"delta":     func(a answer) answer { a.Delta = math.Nextafter(a.Delta, 1); return a },
		"community": func(a answer) answer { a.Community = a.Community[1:]; return a },
		"found":     func(answer) answer { return answer{} },
	}
	for name, p := range perturb {
		var gt gate
		gt.checkAgainst("search", items, func(req query.Request) (answer, error) {
			a, err := reference(g, req)
			return p(a), err
		})
		if len(gt.failures) != len(items) {
			t.Errorf("perturbed %s: %d failures, want %d", name, len(gt.failures), len(items))
		}
	}
}

func TestSameGraphSeesEveryKindOfChange(t *testing.T) {
	g := testGraph(t)
	if d := sameGraph(g, graph.CopyStore(g)); d != "" {
		t.Fatalf("a copy differs: %s", d)
	}
	pairs := ownedPairs(g, 1, 1, 1)[0]
	for name, d := range map[string]mutate.Delta{
		"edge": mutate.AddEdge(pairs[0].u, pairs[0].v),
		"text": mutate.SetAttr(5, []string{"changed"}, nil),
		"num":  mutate.SetAttr(5, nil, make([]float64, g.NumDim())),
	} {
		s := mutate.NewSession(g, make([]int32, g.NumNodes()), nil)
		if err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
		if sameGraph(g, s.Materialize()) == "" {
			t.Errorf("%s change not detected", name)
		}
	}
}
