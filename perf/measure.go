package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query"
)

// maxChecked bounds the in-run /search answers the gate re-derives with the
// reference search; maxCheckedMulti bounds the /batch and the /compare
// responses, each of whose items it re-derives.
const (
	maxChecked      = 40
	maxCheckedMulti = 8
)

// report is what a run found: the result line's metrics, further recorded
// figures, and the correctness gate.
type report struct {
	metrics   *metrics
	extra     *metrics
	errors    map[string]int
	gate      gate
	attempted int
	failed    int
	notes     []string // human-readable lines printed before the record
}

func newReport() *report { return &report{metrics: newMetrics(), extra: newMetrics()} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "seaperf:", n)
	}
	for _, set := range []*metrics{r.metrics, r.extra} {
		for _, k := range set.order {
			m := set.vals[k]
			fmt.Fprintf(w, "seaperf: %-28s %14.6g %-6s (n=%d)\n", k, m.Value, m.Unit, m.Samples)
		}
	}
}

// tailParts is the number of equal parts of a phase whose figures are
// combined by their median.
const tailParts = 10

// summary aggregates one load phase.
type summary struct {
	lat [numOpKinds][]float64 // latencies of successes, ms
	all []float64
	// part holds the latencies of each tailParts-th of the phase, by send
	// time: [opSearch] for searches, [numOpKinds] for every operation.
	part      [tailParts][numOpKinds + 1][]float64
	lags      []float64 // open-loop send lag, ms
	answered  int       // /search answered (community or no-community)
	found     int
	satisfied int
	deltas    []float64 // δ per distinct answered request
	attempted int
	failed    int
	classes   map[string]int
	seconds   float64
}

func summarize(r run) summary {
	s := summary{classes: make(map[string]int), seconds: r.window.Seconds()}
	seen := make(map[query.Request]bool)
	for _, res := range r.results {
		s.attempted++
		if res.class != "" {
			s.failed++
			s.classes[res.class]++
			continue
		}
		ms := float64(res.lat) / 1e6
		s.lat[res.kind] = append(s.lat[res.kind], ms)
		s.all = append(s.all, ms)
		p := &s.part[min(int(tailParts*res.at/r.window), tailParts-1)]
		p[res.kind] = append(p[res.kind], ms)
		p[numOpKinds] = append(p[numOpKinds], ms)
		if res.lag > 0 {
			s.lags = append(s.lags, float64(res.lag)/1e6)
		}
		if res.kind != opSearch {
			continue
		}
		s.answered++
		if !res.found {
			continue
		}
		s.found++
		if res.satisfied {
			s.satisfied++
		}
		// δ counts once per distinct request: on search-hot a few hot nodes
		// would otherwise set the mean.
		if req := r.ops[res.stream][res.idx].req; !seen[req] {
			seen[req] = true
			s.deltas = append(s.deltas, res.delta)
		}
	}
	return s
}

// partMedian is the median over the phase's parts of f applied to each
// part's latencies of operation kind k (numOpKinds: every operation). The
// host's slow spells come and go within a run; the median of the parts
// keeps a spell that covers less than half the window from setting the
// figure.
func (s summary) partMedian(k opKind, f func([]float64) float64) float64 {
	ps := make([]float64, tailParts)
	for i := range ps {
		ps[i] = f(s.part[i][k])
	}
	return median(ps)
}

func (s summary) p50(k opKind) float64 {
	return s.partMedian(k, func(xs []float64) float64 { return quantile(xs, 0.5) })
}

func (s summary) p99(k opKind) float64 {
	return s.partMedian(k, func(xs []float64) float64 { return quantile(xs, 0.99) })
}

// mixP50 is the workload's request mix at its median latencies: each
// operation kind's p50 weighted by the kind's share of the successful
// requests. The p50 of all requests pooled is no use on a mix: on
// write-mixed it falls between the mutations' latencies and the searches',
// and jumped from run to run between 3.0 and 4.4 ms.
func (s summary) mixP50() float64 {
	mix := 0.0
	for k := opKind(0); k < numOpKinds; k++ {
		if n := len(s.lat[k]); n > 0 {
			mix += float64(n) / float64(len(s.all)) * s.p50(k)
		}
	}
	return mix
}

// rate is the median over the phase's parts of the operations of kind k
// completed successfully per second.
func (s summary) rate(k opKind) float64 {
	partS := s.seconds / tailParts
	return s.partMedian(k, func(xs []float64) float64 { return float64(len(xs)) / partS })
}

// endToEnd sets the result line's metrics that a load phase determines.
func (rep *report) endToEnd(s summary) {
	m := rep.metrics
	search := s.lat[opSearch]
	m.set("search_per_s", "1/s", s.rate(opSearch), s.answered)
	m.set("search_p50_ms", "ms", s.p50(opSearch), len(search))

	m.set("mix_p50_ms", "ms", s.mixP50(), len(s.all))

	m.set("delta_mean", "1", mean(s.deltas), len(s.deltas))
	m.set("community_ratio", "ratio", ratio(s.found, s.answered), s.answered)

	// The tails and reboot_s are recorded but kept off the result line: on
	// the read workloads their run-to-run spread (0.22 to 0.35 of the median
	// over ten seeds) is wider than any bound a regression gate may use.
	x := rep.extra
	x.set("search_p99_ms", "ms", s.p99(opSearch), len(search))
	x.set("request_p99_ms", "ms", s.p99(numOpKinds), len(s.all))
	if b := s.lat[opBatch]; len(b) > 0 {
		x.set("batch_p99_ms", "ms", quantile(b, 0.99), len(b))
	}
	if c := s.lat[opCompare]; len(c) > 0 {
		x.set("compare_p99_ms", "ms", quantile(c, 0.99), len(c))
	}
	if mu := s.lat[opMutate]; len(mu) > 0 {
		x.set("mutate_per_s", "1/s", float64(len(mu))/s.seconds, len(mu))
		x.set("mutate_p50_ms", "ms", quantile(mu, 0.5), len(mu))
		x.set("mutate_p99_ms", "ms", quantile(mu, 0.99), len(mu))
	}
	x.set("guarantee_ratio", "ratio", ratio(s.satisfied, s.found), s.found)
	x.set("no_community", "count", float64(s.answered-s.found), s.answered)
	x.set("fail_ratio", "ratio", ratio(s.failed, s.attempted), s.attempted)
	if len(s.lags) > 0 {
		x.set("gen_lag_ms", "ms", mean(s.lags), len(s.lags))
		x.set("gen_lag_p99_ms", "ms", quantile(s.lags, 0.99), len(s.lags))
	}
	rep.attempted, rep.failed = s.attempted, s.failed
	if len(s.classes) > 0 {
		rep.errors = s.classes
	}
	rep.gate.checkFailures("measured", s)
}

// setUp boots and warms the stack reps times, tearing down all but the
// last, and returns the last with every set-up's duration in seconds.
func setUp(w *workload, spec dataset.Spec, seed int64, hc *http.Client, dir string, reps int, wrap func(http.Handler) http.Handler) (*stack, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		st, err := boot(w, spec, sdir, wrap)
		if err != nil {
			return nil, nil, err
		}
		if err := st.warm(hc, seed); err != nil {
			st.close()
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == reps-1 {
			return st, secs, nil
		}
		st.close()
		os.RemoveAll(sdir)
	}
}

// measuredGens returns the generators of the measured streams. Write
// streams own disjoint non-edges of the generated graph to toggle.
func measuredGens(w *workload, st *stack, seed int64) []*gen {
	n := st.data.Graph.NumNodes()
	var pairs [][]pairEdge
	if w.journaled {
		pairs = ownedPairs(st.data.Graph, seed, w.streams(), pairsPerCl)
	}
	gens := make([]*gen, w.streams())
	for c := range gens {
		var own []pairEdge
		if pairs != nil {
			own = pairs[c]
		}
		gens[c] = newGen(st.name, n, seed, c, own)
		gens[c].peers = len(gens)
	}
	return gens
}

// load drives the workload's measured traffic for dur.
func (d *loader) load(w *workload, gens []*gen, dur time.Duration) run {
	if w.clients > 0 {
		return d.closedLoop(gens, w.next, dur)
	}
	return d.openLoop(gens[0], w.next, w.rate, dur)
}

// measure is the untraced run: set-up, the measured window, the gate and
// the reboot.
func measure(w *workload, seed int64, dur time.Duration, dir string) (*report, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	hc := newClient()
	st, setups, err := setUp(w, spec, seed, hc, dir, setupReps, nil)
	if err != nil {
		return nil, err
	}
	rep.metrics.set("setup_s", "s", median(setups), len(setups))
	gens := measuredGens(w, st, seed)
	var start servedState
	if w.journaled {
		if start, err = st.current(); err != nil {
			return nil, err
		}
	}
	d := &loader{hc: hc, base: st.base}
	r := d.load(w, gens, dur)
	rep.endToEnd(summarize(r))
	rebootS, err := verify(st, start, hc, r, gens, seed, &rep.gate)
	if err != nil {
		return nil, err
	}
	if len(rebootS) > 0 {
		rep.extra.set("reboot_s", "s", slices.Min(rebootS), len(rebootS))
	}
	rep.notef("correctness gate: %d answers compared with the reference search", rep.gate.checked)
	rep.metrics.set("mem_peak_mb", "MB", peakRSSMB(), 1)
	return rep, nil
}

// verify runs the correctness gate on a finished run and reboots from the
// files it left behind, returning each reboot's seconds. start is the
// served state the run began from. It closes st.
//
//   - Read workloads: sampled in-run /search answers, and every item of
//     sampled /batch and /compare answers, must equal the reference search
//     on the generated graph.
//   - Write workload: sampled version-pinned /search answers must equal the
//     reference search on the graph of their version, rebuilt by replaying
//     the acknowledged commits on start; the replay's end state must be the
//     served graph.
//   - Every workload: the probe set, asked over HTTP at the end, must equal
//     the reference search on the served graph; the served graph must equal
//     the generated one (read) and every acknowledged toggle must be in it
//     (write).
//   - The reboot must reproduce the served graph and the probe answers.
func verify(st *stack, start servedState, hc *http.Client, r run, gens []*gen, seed int64, gt *gate) ([]float64, error) {
	defer st.close() // on early returns; closing twice is harmless
	if st.w.journaled {
		replayed := gt.checkPinned(start.g, start.version, r, maxChecked)
		now, err := st.current()
		if err != nil {
			return nil, err
		}
		if replayed != nil {
			if d := sameGraph(replayed, now.g); d != "" {
				gt.failf("replaying the acknowledged commits does not give the served graph: %s", d)
			}
		}
		if err := st.quiesceWrites(hc, gens[0]); err != nil {
			gt.failf("%v", err)
			return nil, nil
		}
	} else {
		ref := func(req query.Request) (answer, error) { return reference(st.data.Graph, req) }
		gt.checkSampled(r, opSearch, maxChecked, ref)
		gt.checkSampled(r, opBatch, maxCheckedMulti, ref)
		gt.checkSampled(r, opCompare, maxCheckedMulti, ref)
	}
	eng, err := st.cat.Resolve(st.name)
	if err != nil {
		return nil, err
	}
	served := graph.CopyStore(eng.Graph())
	probes := probeRequests(st.name, served.NumNodes(), seed)
	primary := make([]checked, len(probes))
	for i, p := range probes {
		res := send(hc, st.base, op{kind: opSearch, req: p, pair: -1}, "")
		if res.class != "" {
			gt.failf("probe q=%d failed: %s", p.Query, res.class)
			return nil, nil
		}
		primary[i] = checked{req: p, got: res.answer()}
	}
	gt.checkAgainst("probe", primary, func(req query.Request) (answer, error) { return reference(served, req) })
	if st.w.journaled {
		gt.checkLedger(served, gens)
	} else if d := sameGraph(served, st.data.Graph); d != "" {
		gt.failf("served graph differs from the generated one: %s", d)
	}
	st.close()

	// Each reboot is timed until it has answered the probe set, and every
	// answer must agree with the primary's.
	var secs []float64
	for i := 0; i < rebootReps; i++ {
		rb, err := st.reboot(probes)
		if err != nil {
			gt.failf("%v", err)
			return nil, nil
		}
		secs = append(secs, rb.seconds)
		for j, a := range rb.answers {
			if d := diff(a, primary[j].got); d != "" {
				gt.failf("reboot %d probe q=%d %s: %s", i, probes[j].Query, probes[j].Method, d)
			}
		}
		if i == rebootReps-1 {
			if d := sameGraph(rb.graph, served); d != "" {
				gt.failf("rebooted graph differs from the served one: %s", d)
			}
		}
		rb.cat.Close()
	}
	return secs, nil
}
