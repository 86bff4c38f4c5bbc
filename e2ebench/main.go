// Command e2ebench is gsim's end-to-end benchmark. It runs one named
// workload from a seed through the program's public API (gsim.New/Open,
// graph builders, the Search family, Checkpoint/Close and server.New),
// checks every answer against the certified ground truth of
// internal/dataset's cluster construction, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced;
// with -trace 1 the workload runs again with spans recorded around every
// call into the program and the per-layer set is printed instead (the
// spans are written to a JSON-lines file when the run ends).
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload aids-served --seed 1 --seconds 8 --trace 0
//
// See README.md for the workloads, the metrics and the layer each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every corpus and round; only the smoke test sets it.
	tiny bool
	// spans is the JSON-lines file the traced run writes its spans to.
	spans string
	// scratch is the directory durable stores live in during the run.
	scratch string
}

var workloads = map[string]func(cfg config) (*report, error){
	"aids-served":        runServed,
	"aasd-scan":          runAASDScan,
	"aids-durable-mixed": runDurable,
	"syn-large":          runSynLarge,
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "operation-sequence seed (corpora are fixed)")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "length of the timed phase in seconds (whole rounds are always completed)")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.spans, "spans", "", "traced run's span file (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build/tmp", "directory for the durable stores of a run")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		for _, v := range rep.violations {
			fmt.Fprintln(os.Stderr, "e2ebench: check failed:", v)
		}
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is what a workload hands back: per-operation counts, metrics in
// print order and any output-check violations.
type report struct {
	ops        map[string]*opCount
	metrics    []metric
	violations []string
}

type opCount struct{ attempted, failed int }

func newReport() *report { return &report{ops: map[string]*opCount{}} }

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.violations) == 0 }

// count merges one client's operation tallies.
func (r *report) count(op string, attempted, failed int) {
	c := r.ops[op]
	if c == nil {
		c = &opCount{}
		r.ops[op] = c
	}
	c.attempted += attempted
	c.failed += failed
}

func (r *report) print(w io.Writer) {
	var names []string
	for n := range r.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	attempted, failed := 0, 0
	for _, n := range names {
		c := r.ops[n]
		fmt.Fprintf(w, "op %-10s attempted=%d failed=%d\n", n, c.attempted, c.failed)
		attempted += c.attempted
		failed += c.failed
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-32s %14.4f %s\n", m.name, m.value, m.unit)
		ms[m.name] = jm{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), attempted, failed, ms})
	fmt.Fprintln(w, string(out))
}

// heapMiB is the live heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupTimes splits one set-up into the parts the setup.* layer metrics
// report.
type setupTimes struct{ load, priors, warm float64 }

// medianSetup runs setup n times and keeps the last instance; each earlier
// instance is released with drop before the next set-up starts, so at
// most one corpus is resident. Set-up time and its parts are reported as
// medians, so one slow repetition does not move them.
func medianSetup[T any](n int, setup func() (T, setupTimes, error), drop func(T)) (T, float64, setupTimes, error) {
	var (
		cur                T
		total              []float64
		load, priors, warm []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(cur)
			var zero T
			cur = zero
		}
		start := time.Now()
		inst, parts, err := setup()
		if err != nil {
			var zero T
			return zero, 0, setupTimes{}, err
		}
		total = append(total, time.Since(start).Seconds())
		load = append(load, parts.load)
		priors = append(priors, parts.priors)
		warm = append(warm, parts.warm)
		cur = inst
	}
	return cur, median(total), setupTimes{median(load), median(priors), median(warm)}, nil
}
