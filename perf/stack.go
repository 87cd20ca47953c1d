package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	sealib "repro"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
)

// graphName is the catalog name a workload's dataset mounts under.
func graphName(w *workload) string { return w.dataset }

// stack is the serving stack of one run: a generated dataset packed to a
// snapshot, mounted in a catalog (journaled for write workloads) and served
// over HTTP on a loopback port.
type stack struct {
	w       *workload
	name    string
	data    *dataset.Generated
	cfg     engine.Config
	cat     *catalog.Catalog
	srv     *http.Server
	served  chan struct{}
	closing sync.Once
	base    string
	snap    string
	journal string
}

// boot generates the dataset from spec, packs it into dir, mounts it and
// starts serving. wrap, when non-nil, wraps the catalog's HTTP handler.
func boot(w *workload, spec dataset.Spec, dir string, wrap func(http.Handler) http.Handler) (*stack, error) {
	d, err := dataset.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.dataset, err)
	}
	s := &stack{
		w: w, name: graphName(w), data: d, cfg: engine.DefaultConfig(),
		snap: filepath.Join(dir, w.dataset+".snap"), journal: filepath.Join(dir, w.dataset+".journal"),
	}
	if _, err := sealib.PackSnapshotFileOpts(d.Graph, s.snap, sealib.PackOptions{Align: true}); err != nil {
		return nil, fmt.Errorf("packing %s: %w", s.snap, err)
	}
	s.cat = catalog.New()
	if w.journaled {
		_, _, err = s.cat.MountPathJournaled(s.name, s.snap, s.journal, s.cfg)
	} else {
		_, err = s.cat.MountPath(s.name, s.snap, s.cfg)
	}
	if err != nil {
		s.cat.Close()
		return nil, fmt.Errorf("mounting %s: %w", s.snap, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.cat.Close()
		return nil, err
	}
	var h http.Handler = catalog.NewHTTPHandler(s.cat, s.cfg)
	if w.journaled {
		h = pinVersions(s.cat, s.name, h)
	}
	if wrap != nil {
		h = wrap(h)
	}
	s.srv = &http.Server{Handler: h}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// servedState is a copy of the graph a stack serves, with its version.
type servedState struct {
	g       *graph.Graph
	version uint64
}

// current copies the graph the stack serves now.
func (s *stack) current() (servedState, error) {
	eng, err := s.cat.Resolve(s.name)
	if err != nil {
		return servedState{}, err
	}
	return servedState{g: graph.CopyStore(eng.Graph()), version: eng.Version()}, nil
}

// versionHeader carries, on a write workload's /search responses, the graph
// version that answered the request.
const versionHeader = "X-Perf-Version"

// pinVersions wraps h so that each /search response says which graph
// version answered it, when that is certain: the wrapper reads the
// engine's version before the request and again when the response
// starts, after the search has run, and sets versionHeader only when no
// commit landed in between. The correctness gate replays the acknowledged
// commits to that version and checks the answer there.
func pinVersions(cat *catalog.Catalog, name string, h http.Handler) http.Handler {
	version := func() uint64 {
		eng, err := cat.Resolve(name)
		if err != nil {
			return 0
		}
		return eng.Version()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/search" {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(&pinWriter{ResponseWriter: w, before: version(), now: version}, r)
	})
}

// pinWriter sets versionHeader when the response starts, if the version
// is still the one the request began at.
type pinWriter struct {
	http.ResponseWriter
	before  uint64
	now     func() uint64
	started bool
}

func (p *pinWriter) WriteHeader(code int) {
	if !p.started {
		p.started = true
		if v := p.now(); v == p.before && v != 0 {
			p.Header().Set(versionHeader, strconv.FormatUint(v, 10))
		}
	}
	p.ResponseWriter.WriteHeader(code)
}

func (p *pinWriter) Write(b []byte) (int, error) {
	if !p.started {
		p.WriteHeader(http.StatusOK)
	}
	return p.ResponseWriter.Write(b)
}

// warm brings a freshly booted stack to its measured state with the
// workload's warm-up requests.
func (s *stack) warm(hc *http.Client, seed int64) error {
	g := newGen(s.name, s.data.Graph.NumNodes(), seed, warmStream, nil)
	return (&loader{hc: hc, base: s.base}).warm(s.w.warm(g))
}

// close stops serving and closes the catalog (which waits for any
// background compaction). Calls after the first do nothing.
func (s *stack) close() {
	s.closing.Do(func() {
		s.srv.Close()
		<-s.served
		s.cat.Close()
	})
}

// rebooted is a fresh catalog mounted from the files a run left behind.
type rebooted struct {
	cat     *catalog.Catalog
	graph   graph.Store // the graph it serves
	seconds float64     // mount until every probe was answered
	answers []answer
}

// reboot mounts the stack's snapshot (and journal) in a fresh catalog and
// answers probes, timing mount plus answers: what a restarted node takes
// to serve again. The stack must be closed.
func (s *stack) reboot(probes []query.Request) (*rebooted, error) {
	t0 := time.Now()
	cat := catalog.New()
	var err error
	if s.w.journaled {
		_, _, err = cat.MountPathJournaled(s.name, s.snap, s.journal, s.cfg)
	} else {
		_, err = cat.MountPath(s.name, s.snap, s.cfg)
	}
	if err != nil {
		cat.Close()
		return nil, fmt.Errorf("reboot mount: %w", err)
	}
	eng, err := cat.Resolve(s.name)
	if err != nil {
		cat.Close()
		return nil, err
	}
	rb := &rebooted{cat: cat, graph: eng.Graph(), answers: make([]answer, len(probes))}
	for i, req := range probes {
		if rb.answers[i], err = answerOf(eng.Query(context.Background(), req)); err != nil {
			cat.Close()
			return nil, fmt.Errorf("reboot probe: %w", err)
		}
	}
	rb.seconds = time.Since(t0).Seconds()
	return rb, nil
}

// quiesceWrites leaves the journal in a fixed state before the reboot:
// compact now, then commit exactly tailCommits sequential set_attr
// mutations, so every run's reboot replays the same journal work.
func (s *stack) quiesceWrites(hc *http.Client, g *gen) error {
	if _, err := s.cat.Compact(s.name); err != nil {
		return fmt.Errorf("compacting before reboot: %w", err)
	}
	for i := 0; i < tailCommits; i++ {
		o := g.setAttr()
		if r := send(hc, s.base, o, ""); r.class != "" {
			return errors.New("tail mutation failed: " + r.class)
		}
		g.ack(o)
	}
	return nil
}

// tailCommits is the number of journal batches every write-mixed reboot
// replays.
const tailCommits = 32
