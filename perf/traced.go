package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	sealib "repro"
	"repro/internal/attr"
	"repro/internal/catalog"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/sea"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/truss"
	"repro/internal/ws"
)

// tracedRun is the per-layer run. It splits the time budget in quarters:
//
//  1. the workload over HTTP, untraced — the baseline of the tracing
//     overhead, and the runtime's allocation and GC figures;
//  2. the same request sequence over HTTP with spans around the client
//     call and the catalog handler's ServeHTTP;
//  3. phase 2's request sequence replayed in process through
//     Catalog.Resolve, Engine.QueryWithMetrics / Engine.Batch and
//     Catalog.Mutate on a fresh journaled mount, then its searches through
//     the kernels (attr, sea, sampling, stats, kcore) and its commit
//     batches through the write layers (mutate, engine, store), each call
//     timed by a span of its own;
//  4. compaction, snapshot open and mount of the files phase 3 left.
//
// Read workloads have no writes of their own; phase 3 ends them with a
// fixed probe of one-delta commits, so the write layers are measured
// against that workload's graph and cache state.
func tracedRun(w *workload, seed int64, dur time.Duration, dir, out string) (*report, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	hc := newClient()
	phase := dur / 4

	st, _, err := setUp(w, spec, seed, hc, filepath.Join(dir, "untraced"), 1, nil)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r1 := (&loader{hc: hc, base: st.base}).load(w, measuredGens(w, st, seed), phase)
	runtime.ReadMemStats(&m1)
	st.close()
	untraced := summarize(r1)

	tr := newTracer()
	st, _, err = setUp(w, spec, seed, hc, filepath.Join(dir, "traced"), 1, tr.wrap)
	if err != nil {
		return nil, err
	}
	d := &loader{hc: hc, base: st.base, tr: tr}
	r2 := d.load(w, measuredGens(w, st, seed), phase)
	st.close()
	traced := summarize(r2)
	rep.attempted, rep.failed = untraced.attempted+traced.attempted, untraced.failed+traced.failed
	rep.gate.checkFailures("untraced", untraced)
	rep.gate.checkFailures("traced", traced)

	rp := &replay{tr: tr, name: st.name, g: st.data.Graph, next: d.rids.Load()}
	if err := rp.run(w, r2.ops, seed, phase, filepath.Join(dir, "replay")); err != nil {
		return nil, err
	}
	if rp.failed > 0 {
		rep.gate.failf("%d replayed calls failed", rp.failed)
	}

	m := rep.metrics
	ops := float64(untraced.attempted)
	m.set("runtime.alloc_kb_per_op", "KiB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/ops, untraced.attempted)
	m.set("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))
	m.set("guarantee_ratio", "ratio", ratio(untraced.satisfied, untraced.found), untraced.found)
	httpSelf := tr.selfTimes(func(s span) bool { return s.Name == "http/search" })
	m.set("http.self_ms", "ms", mean(httpSelf)/1e6, len(httpSelf))
	rp.layerMetrics(m)
	u50, t50 := quantile(untraced.lat[opSearch], 0.5), quantile(traced.lat[opSearch], 0.5)
	m.set("trace.overhead_ms", "ms", t50-u50, len(traced.lat[opSearch]))
	cov := tr.coverage()
	m.set("trace.coverage_ratio", "ratio", cov["search"].Share, cov["search"].Requests)

	x := rep.extra
	x.set("untraced.search_p50_ms", "ms", u50, len(untraced.lat[opSearch]))
	x.set("traced.search_p50_ms", "ms", t50, len(traced.lat[opSearch]))
	x.set("untraced.request_p50_ms", "ms", quantile(untraced.all, 0.5), len(untraced.all))
	x.set("traced.request_p50_ms", "ms", quantile(traced.all, 0.5), len(traced.all))

	table := tr.selfTable()
	rep.notef("%-26s %8s %12s %12s", "span", "count", "mean_ms", "self_ms")
	for _, row := range table {
		rep.notef("%-26s %8d %12.4f %12.4f", row.Name, row.Count, row.MeanMS, row.SelfMS)
	}
	for _, k := range sortedKeys(cov) {
		c := cov[k]
		rep.notef("coverage %-8s client p50 %.4f ms, server p50 %.4f ms (%.1f%%), engine p50 %.4f ms",
			k, c.ClientMS, c.ServerMS, 100*c.Share, c.EngineMS)
	}
	rep.notef("tracing overhead: search p50 %.4f ms traced vs %.4f ms untraced", t50, u50)
	dump := struct {
		Spans    []span              `json:"spans"`
		SelfTime []selfRow           `json:"self_time"`
		Coverage map[string]coverage `json:"coverage"`
		Overhead map[string]float64  `json:"overhead_ms"`
	}{tr.spans, table, cov, map[string]float64{
		"search_p50":  t50 - u50,
		"request_p50": quantile(traced.all, 0.5) - quantile(untraced.all, 0.5),
	}}
	if err := writeJSON(filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed)), dump); err != nil {
		return nil, err
	}
	return rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// replay is phase 3 of the traced run.
type replay struct {
	tr   *tracer
	name string
	g    *graph.Graph // the generated graph every replay starts from
	mu   sync.Mutex
	next uint64 // last request ID used

	failed int
	qms    []engine.QueryMetrics // every engine request
	// engineSelf is, per computed search (no result-cache hit, no
	// admission reject), the engine span minus the distance fetch and the
	// search the engine reported for that very request, in nanoseconds.
	engineSelf []float64
	mutates    []mutated
	kernel     kernelStats
	writes     writeStats
	mapped     bool // the compacted snapshot opened as a memory mapping
}

func (rp *replay) rid() uint64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.next++
	return rp.next
}

// span records a span of layer for request rid from start to now.
func (rp *replay) span(rid uint64, layer int, parent uint64, name string, start time.Time) span {
	s := span{ID: spanID(rid, layer), Parent: parent, Name: name, Req: rid, Start: rp.tr.at(start), End: rp.tr.at(time.Now())}
	rp.tr.record(s)
	return s
}

func (rp *replay) fail() {
	rp.mu.Lock()
	rp.failed++
	rp.mu.Unlock()
}

// searched is one replayed /search: its request and request ID.
type searched struct {
	req query.Request
	rid uint64
}

func (rp *replay) run(w *workload, ops [][]op, seed int64, budget time.Duration, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap, journal := filepath.Join(dir, w.dataset+".snap"), filepath.Join(dir, w.dataset+".journal")
	if _, err := sealib.PackSnapshotFileOpts(rp.g, snap, sealib.PackOptions{Align: true}); err != nil {
		return err
	}
	cfg := engine.DefaultConfig()
	cat := catalog.New()
	if _, _, err := cat.MountPathJournaled(rp.name, snap, journal, cfg); err != nil {
		cat.Close()
		return err
	}
	// The kernels replay on the mount's own backing and metric as first
	// mounted, before any replayed commit moves the graph.
	eng, err := cat.Resolve(rp.name)
	if err != nil {
		cat.Close()
		return err
	}
	base, metric := eng.Graph(), eng.Metric()
	searches := rp.serve(cat, ops)
	if !w.journaled {
		// The write probe: one-delta commits from a stream of its own.
		pairs := ownedPairs(rp.g, seed, 1, pairsPerCl)[0]
		g := newGen(rp.name, rp.g.NumNodes(), seed, writeProbe, pairs)
		probe := make([]op, tailCommits*2)
		for i := range probe {
			probe[i] = g.mutation()
			g.ack(probe[i])
		}
		rp.serve(cat, [][]op{probe})
	}
	rp.kernels(base, metric, searches, budget)
	if err := rp.writeLayers(w.journaled, rp.batches(), filepath.Join(dir, "scratch.journal"), budget); err != nil {
		cat.Close()
		return err
	}
	return rp.compactAndMount(cat, snap, journal, cfg)
}

// serve replays each stream's ops on its own goroutine through the
// catalog's and engine's entry points and returns the replayed searches.
func (rp *replay) serve(cat *catalog.Catalog, ops [][]op) []searched {
	var wg sync.WaitGroup
	per := make([][]searched, len(ops))
	for s := range ops {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, o := range ops[s] {
				if sr, ok := rp.serveOne(cat, o); ok {
					per[s] = append(per[s], sr)
				}
			}
		}(s)
	}
	wg.Wait()
	var out []searched
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

func (rp *replay) serveOne(cat *catalog.Catalog, o op) (searched, bool) {
	ctx := context.Background()
	rid := rp.rid()
	t0 := time.Now()
	eng, err := cat.Resolve(rp.name)
	rp.span(rid, layerResolve, 0, "catalog.resolve", t0)
	if err != nil {
		rp.fail()
		return searched{}, false
	}
	t1 := time.Now()
	var qms []engine.QueryMetrics
	var sr searched
	switch o.kind {
	case opSearch:
		_, qm, err := eng.QueryWithMetrics(ctx, o.req)
		sp := rp.span(rid, layerEngine, 0, "engine.query", t1)
		if err != nil && !errors.Is(err, cserr.ErrNoCommunity) {
			rp.fail()
		}
		if !qm.ResultHit && !qm.IndexHit {
			rp.engineChildren(sp, qm)
		}
		qms = append(qms, qm)
		sr = searched{req: o.req, rid: rid}
	case opBatch, opCompare:
		reqs := o.batchRequests()
		if o.kind == opCompare {
			reqs = o.compareRequests()
		}
		for i := range reqs {
			reqs[i] = reqs[i].WithDefaults()
		}
		items, err := eng.Batch(ctx, reqs)
		rp.span(rid, layerEngine, 0, "engine.batch", t1)
		if err != nil {
			rp.fail()
		}
		for _, it := range items {
			qms = append(qms, it.Metrics)
		}
	case opMutate:
		res, err := cat.Mutate(rp.name, []mutate.Delta{o.delta})
		rp.span(rid, layerMutate, 0, "catalog.mutate", t1)
		if err != nil {
			rp.fail()
			return sr, false
		}
		rp.mu.Lock()
		rp.mutates = append(rp.mutates, mutated{res: res, delta: o.delta})
		rp.mu.Unlock()
		return sr, false
	}
	rp.mu.Lock()
	rp.qms = append(rp.qms, qms...)
	rp.mu.Unlock()
	return sr, o.kind == opSearch
}

// engineChildren records, as reported children of the engine span eng,
// the distance fetch and the search the engine timed for that request
// (QueryMetrics.DistNS and SearchNS), and keeps the engine's self time.
func (rp *replay) engineChildren(eng span, qm engine.QueryMetrics) {
	dist := span{ID: spanID(eng.Req, layerEngineDist), Parent: eng.ID, Name: "engine.dist", Req: eng.Req,
		Start: eng.Start, End: eng.Start + qm.DistNS, Reported: true}
	search := span{ID: spanID(eng.Req, layerEngineSearch), Parent: eng.ID, Name: "engine.search", Req: eng.Req,
		Start: dist.End, End: dist.End + qm.SearchNS, Reported: true}
	rp.tr.record(dist)
	rp.tr.record(search)
	self := float64(eng.dur() - qm.DistNS - qm.SearchNS)
	rp.mu.Lock()
	rp.engineSelf = append(rp.engineSelf, self)
	rp.mu.Unlock()
}

// kernelStats aggregates the kernel replay.
type kernelStats struct {
	found, rounds, gq, sample int
	s1, s2, s3                []float64 // ms
}

// kernels replays searches, until budget is spent, through the SEA kernels
// on g with metric m: QueryDist and SearchWithDist first, then — in a
// second pass, so their garbage does not land in the first pass's timings
// — the sampling, estimation and decomposition calls of a SEA first round.
// Each is a call of its own, outside any engine request, so its span has
// no parent; the engine's own split of its time comes from the metrics it
// reported (engineChildren).
func (rp *replay) kernels(g graph.Store, m *attr.Metric, searches []searched, budget time.Duration) {
	type replayed struct {
		s    searched
		dist []float64
	}
	var done []replayed
	ks := &rp.kernel
	runtime.GC()
	deadline := time.Now().Add(budget / 2)
	for _, s := range searches {
		if time.Now().After(deadline) {
			break
		}
		q, opts := s.req.Query, s.req.Options()
		t0 := time.Now()
		dist := m.QueryDist(q)
		rp.span(s.rid, layerAttr, 0, "attr.query_dist", t0)
		t1 := time.Now()
		res, err := sea.SearchWithDist(g, dist, q, opts)
		rp.span(s.rid, layerSEA, 0, "sea.search", t1)
		if err != nil && !errors.Is(err, cserr.ErrNoCommunity) {
			rp.fail()
		}
		if res != nil {
			ks.found++
			ks.rounds += len(res.Rounds)
			ks.gq += res.GqSize
			ks.sample += res.SampleSize
			ks.s1 = append(ks.s1, float64(res.Steps.Sampling)/1e6)
			ks.s2 = append(ks.s2, float64(res.Steps.Estimation)/1e6)
			ks.s3 = append(ks.s3, float64(res.Steps.Incremental)/1e6)
		}
		done = append(done, replayed{s, dist})
	}
	runtime.GC()
	deadline = time.Now().Add(budget / 2)
	for _, r := range done {
		if time.Now().After(deadline) {
			break
		}
		rp.firstRound(g, r.s.rid, r.s.req.Query, r.dist, r.s.req.Options())
	}
}

// firstRound times, one call each, the kernels of a SEA first round:
// weighted sampling from the Gq population, BLB estimation over the
// sampled distances, and core decomposition of the sample's induced
// subgraph.
func (rp *replay) firstRound(g graph.Store, rid uint64, q graph.NodeID, dist []float64, opts sea.Options) {
	n := g.NumNodes()
	minGq, err := stats.MinGqSizeCore(opts.Eps, opts.Beta, opts.K, n)
	if opts.Model == sea.KTruss {
		minGq, err = stats.MinGqSizeTruss(opts.Eps, opts.Beta, opts.K, n)
	}
	if err != nil {
		rp.fail()
		return
	}
	w := ws.Get()
	defer w.Release()
	gq := sampling.BuildGqInto(nil, g, q, dist, minGq, w)
	probs := sampling.ProbabilitiesInto(nil, gq, dist)
	size := max(int(opts.Lambda*float64(len(gq))), opts.K+1)
	rng := rand.New(rand.NewSource(opts.Seed))
	t0 := time.Now()
	sample := sampling.WeightedSampleInto(nil, gq, probs, size, q, rng, w)
	rp.span(rid, layerSampling, 0, "sampling.weighted_sample", t0)
	vals := make([]float64, len(sample))
	for i, v := range sample {
		vals[i] = dist[v]
	}
	t1 := time.Now()
	if _, err := stats.BLB(vals, opts.BLB, rng); err != nil {
		rp.fail()
	}
	rp.span(rid, layerStats, 0, "stats.blb", t1)
	sub, _ := graph.InducedSubgraphOf(g, sample)
	t2 := time.Now()
	kcore.Decompose(sub)
	rp.span(rid, layerKCore, 0, "kcore.decompose", t2)
}

// mutated is one replayed commit: its one-delta group and the result.
type mutated struct {
	res   *catalog.MutateResult
	delta mutate.Delta
}

// batches rebuilds the commit batches of the replayed mutations: the
// groups whose results carry the same graph version were flushed together.
func (rp *replay) batches() [][][]mutate.Delta {
	byVersion := make(map[uint64][][]mutate.Delta)
	var versions []uint64
	for _, mu := range rp.mutates {
		v := mu.res.Version
		if _, ok := byVersion[v]; !ok {
			versions = append(versions, v)
		}
		byVersion[v] = append(byVersion[v], []mutate.Delta{mu.delta})
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	out := make([][][]mutate.Delta, len(versions))
	for i, v := range versions {
		out[i] = byVersion[v]
	}
	return out
}

// writeStats aggregates the write-layer replay.
type writeStats struct {
	deltas       int
	journalBytes int64
}

// writeLayers replays the commit batches, in version order and until
// budget is spent, through each write layer's public entry point: a
// Preflight over each batch, a maintenance Session (with the per-edge truss
// table when the workload keeps the truss index) and its Materialize, a
// replica engine's ApplyGroups, and an fsync'd journal append on a scratch
// journal.
func (rp *replay) writeLayers(withTruss bool, batches [][][]mutate.Delta, journalPath string, budget time.Duration) error {
	cfg := engine.DefaultConfig()
	cfg.EagerTruss = withTruss
	replica, err := engine.New(rp.g, cfg)
	if err != nil {
		return err
	}
	core := kcore.Decompose(rp.g)
	var etruss map[mutate.Edge]int32
	if withTruss {
		ix, tr := truss.Decompose(rp.g)
		etruss = make(map[mutate.Edge]int32, ix.NumEdges())
		for e := range tr {
			etruss[mutate.EdgeOf(ix.U[e], ix.V[e])] = tr[e]
		}
	}
	j, _, err := store.OpenJournal(journalPath)
	if err != nil {
		return err
	}
	defer j.Close()
	before, err := os.Stat(journalPath)
	if err != nil {
		return err
	}
	var cur graph.Store = rp.g
	deadline := time.Now().Add(budget)
	wst := &rp.writes
	for _, b := range batches {
		if time.Now().After(deadline) {
			break
		}
		rid := rp.rid()
		t0 := time.Now()
		p := mutate.NewPreflight(cur)
		for _, grp := range b {
			if err := p.Group(grp); err != nil {
				return fmt.Errorf("replayed batch rejected by preflight: %w", err)
			}
		}
		rp.span(rid, layerPreflight, 0, "mutate.preflight", t0)
		t1 := time.Now()
		sess := mutate.NewSession(cur, core, etruss)
		for _, grp := range b {
			for _, dl := range grp {
				if err := sess.Apply(dl); err != nil {
					return fmt.Errorf("replayed delta rejected by session: %w", err)
				}
			}
		}
		rp.span(rid, layerMaintain, 0, "mutate.maintain", t1)
		t2 := time.Now()
		next := sess.Materialize()
		rp.span(rid, layerMaterialize, 0, "mutate.materialize", t2)
		cur, core, etruss = next, sess.Core(), sess.EdgeTruss()
		t3 := time.Now()
		if _, _, err := replica.ApplyGroups(b); err != nil {
			return fmt.Errorf("replica ApplyGroups: %w", err)
		}
		rp.span(rid, layerApply, 0, "engine.apply_groups", t3)
		t4 := time.Now()
		if _, err := j.AppendGroups(b); err != nil {
			return fmt.Errorf("scratch journal append: %w", err)
		}
		rp.span(rid, layerJournal, 0, "store.journal_append", t4)
		for _, grp := range b {
			wst.deltas += len(grp)
		}
	}
	after, err := os.Stat(journalPath)
	if err != nil {
		return err
	}
	wst.journalBytes = after.Size() - before.Size()
	return nil
}

// compactAndMount compacts the replay mount, opens the compacted snapshot,
// closes the catalog and mounts its files again in a fresh one.
func (rp *replay) compactAndMount(cat *catalog.Catalog, snap, journal string, cfg engine.Config) error {
	rid := rp.rid()
	t0 := time.Now()
	_, err := cat.Compact(rp.name)
	rp.span(rid, layerCompact, 0, "catalog.compact", t0)
	cat.Close()
	if err != nil {
		return fmt.Errorf("compacting the replay mount: %w", err)
	}
	t1 := time.Now()
	m, err := store.OpenMapped(snap)
	rp.span(rid, layerOpen, 0, "store.snapshot_open", t1)
	if err != nil {
		return err
	}
	rp.mapped = m.Mapped()
	m.Close()
	fresh := catalog.New()
	defer fresh.Close()
	t2 := time.Now()
	_, _, err = fresh.MountPathJournaled(rp.name, snap, journal, cfg)
	rp.span(rid, layerMount, 0, "catalog.mount", t2)
	return err
}

// spanMean returns the mean duration, in units of unit nanoseconds, of every span
// named name, and their count.
func (rp *replay) spanMean(name string, unit float64) (float64, int) {
	var xs []float64
	for _, s := range rp.tr.spans {
		if s.Name == name && !s.Reported {
			xs = append(xs, float64(s.dur())/unit)
		}
	}
	return mean(xs), len(xs)
}

// layerMetrics sets the per-layer metrics phase 3 and 4 measured.
func (rp *replay) layerMetrics(m *metrics) {
	const us, ms = 1e3, 1e6
	spanMetric := func(metric, unit, name string, scale float64) {
		v, n := rp.spanMean(name, scale)
		m.set(metric, unit, v, n)
	}
	spanMetric("catalog.resolve_us", "us", "catalog.resolve", us)
	spanMetric("engine.query_ms", "ms", "engine.query", ms)
	var hit, distHit, coal, reject, computed int
	for _, qm := range rp.qms {
		switch {
		case qm.ResultHit:
			hit++
		case qm.IndexHit:
			reject++
		default:
			computed++
			if qm.DistHit {
				distHit++
			}
		}
		if qm.Coalesced {
			coal++
		}
	}
	n := len(rp.qms)
	m.set("engine.result_hit_ratio", "ratio", ratio(hit, n), n)
	m.set("engine.dist_hit_ratio", "ratio", ratio(distHit, computed), computed)
	m.set("engine.coalesced_ratio", "ratio", ratio(coal, n), n)
	m.set("engine.reject_ratio", "ratio", ratio(reject, n), n)
	ks := rp.kernel
	m.set("engine.self_ms", "ms", mean(rp.engineSelf)/ms, len(rp.engineSelf))
	spanMetric("attr.query_dist_ms", "ms", "attr.query_dist", ms)
	spanMetric("sea.search_ms", "ms", "sea.search", ms)
	m.set("sea.s1_sampling_ms", "ms", mean(ks.s1), len(ks.s1))
	m.set("sea.s2_estimation_ms", "ms", mean(ks.s2), len(ks.s2))
	m.set("sea.s3_incremental_ms", "ms", mean(ks.s3), len(ks.s3))
	m.set("sea.rounds_mean", "count", ratio(ks.rounds, ks.found), ks.found)
	m.set("sea.gq_size_mean", "count", ratio(ks.gq, ks.found), ks.found)
	m.set("sea.sample_size_mean", "count", ratio(ks.sample, ks.found), ks.found)
	spanMetric("sampling.weighted_sample_us", "us", "sampling.weighted_sample", us)
	spanMetric("stats.blb_us", "us", "stats.blb", us)
	spanMetric("kcore.decompose_us", "us", "kcore.decompose", us)

	spanMetric("catalog.mutate_ms", "ms", "catalog.mutate", ms)
	var queue, flush []float64
	var batch, compactions int
	invalidated := make(map[uint64]int)
	for _, mu := range rp.mutates {
		res := mu.res
		queue = append(queue, float64(res.QueueNS)/ms)
		flush = append(flush, float64(res.FlushNS)/ms)
		batch += res.BatchSize
		invalidated[res.Version] = res.ResultsInvalidated + res.DistsInvalidated
		if res.Compacting {
			compactions++
		}
	}
	inv := 0
	for _, v := range invalidated {
		inv += v
	}
	m.set("commit.queue_ms", "ms", mean(queue), len(queue))
	m.set("commit.flush_ms", "ms", mean(flush), len(flush))
	m.set("commit.batch_size_mean", "count", ratio(batch, len(rp.mutates)), len(rp.mutates))
	spanMetric("mutate.preflight_us", "us", "mutate.preflight", us)
	spanMetric("mutate.maintain_ms", "ms", "mutate.maintain", ms)
	spanMetric("mutate.materialize_ms", "ms", "mutate.materialize", ms)
	spanMetric("engine.apply_groups_ms", "ms", "engine.apply_groups", ms)
	m.set("engine.invalidated_per_batch", "count", ratio(inv, len(invalidated)), len(invalidated))
	spanMetric("store.journal_append_ms", "ms", "store.journal_append", ms)
	m.set("store.journal_bytes_per_delta", "B", ratio(int(rp.writes.journalBytes), rp.writes.deltas), rp.writes.deltas)
	spanMetric("catalog.compact_ms", "ms", "catalog.compact", ms)
	m.set("catalog.compactions", "count", float64(compactions), len(rp.mutates))
	spanMetric("store.snapshot_open_ms", "ms", "store.snapshot_open", ms)
	mapped := 0.0
	if rp.mapped {
		mapped = 1
	}
	m.set("store.mapped", "bool", mapped, 1)
	spanMetric("catalog.mount_ms", "ms", "catalog.mount", ms)
}
