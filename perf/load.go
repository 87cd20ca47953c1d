package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
)

// newClient returns the load generator's one HTTP client. Connections to the
// server are capped at the machine's processor count, so the generator can
// never hold more requests on the wire than the server has cores; an open
// loop's excess waits in the client, inside its measured latency.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}
}

// result is one completed request.
type result struct {
	kind   opKind
	stream int
	idx    int           // position in the stream's op list
	at     time.Duration // send (open loop: scheduled send) since the phase began
	lat    time.Duration
	lag    time.Duration // open loop: actual send − scheduled send
	// class is "" on success, else a seaload class (refused, timeout, conn,
	// shed_429, http_5xx, http_4xx) or item_error: a /batch or /compare
	// answered 200 with an item that failed other than by finding no
	// community, which seaload does not look for.
	class string
	// /search only: found is false for a 404 no-community answer.
	found     bool
	delta     float64
	satisfied bool
	engineNS  int64 // the engine's own QueryWithMetrics time (metrics.total_ns)
	community []graph.NodeID
	// version is the graph version a write workload's /search was answered
	// at (pinned: see pinVersions), or the version an /admin/mutate
	// committed.
	version uint64
	pinned  bool
	items   []answer // /batch and /compare: each item's answer, in request order
}

// searchBody is the part of a /search response, and of each /batch and
// /compare item, the benchmark reads.
type searchBody struct {
	Community []graph.NodeID `json:"community"`
	Delta     float64        `json:"delta"`
	Satisfied bool           `json:"satisfied"`
	Err       string         `json:"err"`
	Metrics   struct {
		TotalNS int64 `json:"total_ns"`
	} `json:"metrics"`
}

// itemsBody is the part of a /batch or /compare response the benchmark
// reads.
type itemsBody struct {
	Items []searchBody `json:"items"`
}

// mutateBody is the part of an /admin/mutate response the benchmark reads.
type mutateBody struct {
	Version uint64 `json:"version"`
}

// noCommunity reports whether an item error is the no-community answer.
func noCommunity(msg string) bool { return strings.Contains(msg, cserr.ErrNoCommunity.Error()) }

// send fires one request and classifies the outcome like seaload: transport
// failures by kind, 429, 5xx, and any 4xx except a /search 404 that reports
// no community — a correct answer, counted apart from found communities.
func send(hc *http.Client, base string, o op, rid string) result {
	r := result{kind: o.kind}
	hreq, err := http.NewRequest(http.MethodPost, base+o.path(), bytes.NewReader(o.body()))
	if err != nil {
		r.class = "conn"
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	if rid != "" {
		hreq.Header.Set(engine.RequestIDHeader, rid)
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		var nerr net.Error
		switch {
		case errors.As(err, &nerr) && nerr.Timeout():
			r.class = "timeout"
		case errors.Is(err, syscall.ECONNREFUSED):
			r.class = "refused"
		default:
			r.class = "conn"
		}
		return r
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if resp.StatusCode >= 300 && (o.kind != opSearch || resp.StatusCode != http.StatusNotFound) {
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			r.class = "shed_429"
		case resp.StatusCode >= 500:
			r.class = "http_5xx"
		default:
			r.class = "http_4xx"
		}
		return r
	}
	switch o.kind {
	case opSearch:
		var body searchBody
		if err = json.NewDecoder(resp.Body).Decode(&body); err != nil {
			break
		}
		if resp.StatusCode == http.StatusNotFound && !noCommunity(body.Err) {
			r.class = "http_4xx" // a 404 that is not a no-community answer
			return r
		}
		r.found = resp.StatusCode == http.StatusOK
		r.delta, r.satisfied, r.engineNS = body.Delta, body.Satisfied, body.Metrics.TotalNS
		r.community = body.Community
		if v := resp.Header.Get(versionHeader); v != "" {
			r.version, err = strconv.ParseUint(v, 10, 64)
			r.pinned = err == nil
		}
	case opBatch, opCompare:
		var body itemsBody
		if err = json.NewDecoder(resp.Body).Decode(&body); err != nil {
			break
		}
		r.items = make([]answer, len(body.Items))
		for i, it := range body.Items {
			if it.Err != "" && !noCommunity(it.Err) {
				r.class = "item_error"
				return r
			}
			r.items[i] = answer{Found: it.Err == "", Community: it.Community, Delta: it.Delta}
		}
	case opMutate:
		var body mutateBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		r.version = body.Version
	}
	if err != nil {
		r.class = "conn" // a body cut short or garbled on the way
	}
	return r
}

// run is one load phase's complete record.
type run struct {
	ops     [][]op // per stream, every op sent, in order
	results []result
	window  time.Duration // the phase's sending time
}

// loader sends one phase's traffic to a server.
type loader struct {
	hc   *http.Client
	base string
	tr   *tracer // nil: untraced
	rids atomic.Uint64
}

// fire sends o and, when tracing, records the client span around it.
func (d *loader) fire(o op) result {
	if d.tr == nil {
		return send(d.hc, d.base, o, "")
	}
	id := d.rids.Add(1)
	start := time.Now()
	r := send(d.hc, d.base, o, strconv.FormatUint(id, 10))
	end := time.Now()
	d.tr.record(span{ID: spanID(id, layerClient), Name: "client." + o.kind.String(), Req: id,
		Start: d.tr.at(start), End: d.tr.at(end)})
	if o.kind == opSearch && r.class == "" {
		// The engine's own QueryWithMetrics time, which the response
		// reports, is the child of the server's http span. Only its length
		// is known; it is placed at the end of the request.
		d.tr.record(span{ID: spanID(id, layerEngine), Parent: spanID(id, layerHTTP), Name: "engine.reported",
			Req: id, Start: d.tr.at(end) - r.engineNS, End: d.tr.at(end), Reported: true})
	}
	return r
}

// closedLoop runs one client per generator, each sending its next request
// when the previous one has completed, until dur has passed.
func (d *loader) closedLoop(gens []*gen, next func(*gen) op, dur time.Duration) run {
	out := run{ops: make([][]op, len(gens)), window: dur}
	per := make([][]result, len(gens))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func(c int, g *gen) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := next(g)
				t0 := time.Now()
				r := d.fire(o)
				r.at, r.lat = t0.Sub(start), time.Since(t0)
				if r.class == "" {
					g.ack(o)
				}
				r.stream, r.idx = c, len(out.ops[c])
				out.ops[c] = append(out.ops[c], o)
				per[c] = append(per[c], r)
			}
		}(c, g)
	}
	wg.Wait()
	for _, rs := range per {
		out.results = append(out.results, rs...)
	}
	return out
}

// openLoop sends g's requests on a fixed schedule of rate per second for
// dur, whatever the server is doing. Each latency runs from the request's
// scheduled send, so a stall shows as queueing in later requests instead of
// slowing the schedule; lag records how late the generator actually sent.
func (d *loader) openLoop(g *gen, next func(*gen) op, rate float64, dur time.Duration) run {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	out := run{ops: [][]op{make([]op, n)}, results: make([]result, n), window: dur}
	for i := range out.ops[0] {
		out.ops[0][i] = next(g)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if w := time.Until(sched); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			lag := time.Since(sched)
			r := d.fire(out.ops[0][i])
			r.at, r.lat, r.lag, r.idx = sched.Sub(start), time.Since(sched), lag, i
			out.results[i] = r
		}(i, sched)
	}
	wg.Wait()
	return out
}

// warm sends ops split over two closed-loop clients and fails on the first
// failed request: set-up must leave a healthy server.
func (d *loader) warm(ops []op) error {
	const clients = 2
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := c; i < len(ops); i += clients {
				if r := send(d.hc, d.base, ops[i], ""); r.class != "" {
					errs <- errors.New("warm-up " + ops[i].kind.String() + " failed: " + r.class)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
