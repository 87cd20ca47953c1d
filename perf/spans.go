package main

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
)

// Layers of the span IDs: a span's ID is its request ID shifted left with
// the layer in the low bits, so a child names its parent without a lookup.
const (
	layerClient = iota
	layerHTTP
	layerEngine
	layerResolve
	layerAttr
	layerSEA
	layerSampling
	layerStats
	layerKCore
	layerMutate
	layerPreflight
	layerMaintain
	layerMaterialize
	layerApply
	layerJournal
	layerCompact
	layerOpen
	layerMount
	layerEngineDist
	layerEngineSearch
	layerBits = 5
)

func spanID(req uint64, layer int) uint64 { return req<<layerBits | uint64(layer) }

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Reported spans carry a duration the program itself
// measured and returned (the engine's metrics.total_ns); the benchmark
// timed every other span around the call.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Req      uint64 `json:"req"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Reported bool   `json:"reported,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap returns h with an http span around every ServeHTTP of a request
// that carries a request ID (the traced load's requests).
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.ParseUint(r.Header.Get(engine.RequestIDHeader), 10, 64)
		if err != nil {
			return
		}
		t.record(span{ID: spanID(id, layerHTTP), Parent: spanID(id, layerClient), Name: "http" + r.URL.Path,
			Req: id, Start: t.at(start), End: t.at(end)})
	})
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	SelfMS float64 `json:"self_ms"`
}

// childTime sums, per parent span ID, the durations of its children.
func (t *tracer) childTime() map[uint64]int64 {
	kids := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] += s.dur()
		}
	}
	return kids
}

// selfTimes returns, for every span keep selects, its duration minus the
// time of its child spans, in nanoseconds.
func (t *tracer) selfTimes(keep func(span) bool) []float64 {
	kids := t.childTime()
	var out []float64
	for _, s := range t.spans {
		if keep(s) {
			out = append(out, float64(s.dur()-kids[s.ID]))
		}
	}
	return out
}

// selfTable is the per-layer self-time table: each span name's mean
// duration and mean self time.
func (t *tracer) selfTable() []selfRow {
	kids := t.childTime()
	rows := make(map[string]*selfRow)
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.MeanMS += float64(s.dur()) / 1e6
		r.SelfMS += float64(s.dur()-kids[s.ID]) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, k := range sortedKeys(rows) {
		r := rows[k]
		r.MeanMS /= float64(r.Count)
		r.SelfMS /= float64(r.Count)
		out = append(out, *r)
	}
	return out
}

// coverage is how much of one operation's end-to-end median the spans on
// its blocking path account for.
type coverage struct {
	Requests int     `json:"requests"`
	ClientMS float64 `json:"client_p50_ms"`
	ServerMS float64 `json:"server_p50_ms"`
	EngineMS float64 `json:"engine_p50_ms,omitempty"`
	Share    float64 `json:"server_share"`
}

// coverage compares, per operation, the median client span with the median
// ServeHTTP span (and, for /search, the engine's reported time).
func (t *tracer) coverage() map[string]coverage {
	client := make(map[string][]float64)
	server := make(map[string][]float64)
	var eng []float64
	for _, s := range t.spans {
		ms := float64(s.dur()) / 1e6
		switch {
		case len(s.Name) > 7 && s.Name[:7] == "client.":
			client[s.Name[7:]] = append(client[s.Name[7:]], ms)
		case s.Name == "engine.reported":
			eng = append(eng, ms)
		}
		if s.ID&(1<<layerBits-1) == layerHTTP {
			k := kindOfPath(s.Name[len("http"):])
			server[k] = append(server[k], ms)
		}
	}
	out := make(map[string]coverage)
	for k, c := range client {
		cv := coverage{Requests: len(c), ClientMS: median(c), ServerMS: median(server[k])}
		cv.Share = cv.ServerMS / cv.ClientMS
		if k == "search" {
			cv.EngineMS = median(eng)
		}
		out[k] = cv
	}
	return out
}

func kindOfPath(path string) string {
	for k := opKind(0); k < numOpKinds; k++ {
		if (op{kind: k}).path() == path {
			return k.String()
		}
	}
	return path
}
