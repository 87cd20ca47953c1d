// Command seaperf is the serving benchmark. It boots the catalog HTTP
// stack in process on a loopback port over a dataset generated from the
// workload seed, drives one workload over real HTTP, checks the answers
// against the library's one-shot search, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perf/run.sh --workload search-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// reports its per-layer metrics from a traced run (see traced.go). Work
// files, the run record and the span dump go under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a run sets the stack up; setup_s is the
// median, and the last stack serves the measured traffic.
const setupReps = 9

// rebootReps is how many times a run reboots from the files left behind;
// reboot_s is the fastest, since the host's stalls only ever add to it.
const rebootReps = 11

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// record is the run's full report: metadata, every metric with its sample
// count, and whatever the gate found. It is printed before the result line
// and written under --out.
type record struct {
	Meta     runMeta           `json:"meta"`
	Metrics  map[string]metric `json:"metrics"`
	Extra    map[string]metric `json:"extra,omitempty"`
	Errors   map[string]int    `json:"error_classes,omitempty"`
	Failures []string          `json:"gate_failures,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: search-cold, search-hot or write-mixed")
		seed    = flag.Int64("seed", 1, "workload seed: dataset and request sequence")
		seconds = flag.Float64("seconds", 15, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for work files, records and span dumps")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	meta := collectMeta()
	meta.Workload, meta.Seed, meta.Seconds, meta.Trace = w.name, *seed, *seconds, *trace == 1
	meta.Dataset = fmt.Sprintf("%s@%g", w.dataset, w.scale)

	dir := filepath.Join(*out, "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, dur, dir, *out)
	} else {
		rep, err = measure(w, *seed, dur, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	rec := record{Meta: meta, Metrics: rep.metrics.vals, Extra: rep.extra.vals, Errors: rep.errors, Failures: rep.gate.failures}
	if err := writeJSON(filepath.Join(*out, "records", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)), rec); err != nil {
		fail(err)
	}
	rep.print(os.Stdout)
	line, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", line)
	res := resultLine{Correct: rep.gate.ok(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]map[string]any, len(rep.metrics.order))}
	for _, k := range rep.metrics.order {
		m := rep.metrics.vals[k]
		res.Metrics[k] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		for _, f := range rep.gate.failures {
			fmt.Fprintln(os.Stderr, "seaperf: correctness:", f)
		}
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seaperf:", err)
	os.Exit(1)
}
