package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// minP95Samples is the sample count below which a p95 would have fewer
// than ten samples beyond it; rounds repeat until every p95 operation
// type has at least this many.
const minP95Samples = 200

// rateWindow is the window ops_per_s is counted over: the reported rate
// is the median over the whole windows of a timed phase, so a stall or a
// burst of contention on a shared machine moves one window, not the run.
const rateWindow = time.Second

// samples collects per-operation latencies (µs) and outcome counts from
// concurrent clients, and the number of operations completed in each
// rateWindow since it was created.
type samples struct {
	mu        sync.Mutex
	t0        time.Time
	lat       map[string][]float64
	attempted map[string]int
	failed    map[string]int
	windows   []int
}

// newSamples starts a timed phase's collection.
func newSamples() *samples {
	return &samples{t0: time.Now(), lat: map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
}

// record notes one operation of type op that took d; err marks it failed
// (a failed operation contributes no latency sample).
func (s *samples) record(op string, d time.Duration, err error) {
	w := int(time.Since(s.t0) / rateWindow)
	s.mu.Lock()
	for len(s.windows) <= w {
		s.windows = append(s.windows, 0)
	}
	s.windows[w]++
	s.attempted[op]++
	if err != nil {
		s.failed[op]++
	} else {
		s.lat[op] = append(s.lat[op], float64(d.Nanoseconds())/1e3)
	}
	s.mu.Unlock()
}

func (s *samples) us(op string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lat[op]
}

func (s *samples) n(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lat[op])
}

// enough reports whether every listed operation type has a p95 sample.
func (s *samples) enough(ops ...string) bool {
	for _, op := range ops {
		if s.n(op) < minP95Samples {
			return false
		}
	}
	return true
}

func (s *samples) total() (attempted, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for op, n := range s.attempted {
		attempted += n
		failed += s.failed[op]
	}
	return attempted, failed
}

// opsPerSec is the median number of operations completed per second over
// the whole rate windows of a phase that lasted wall; a phase shorter than
// one window reports its mean rate.
func (s *samples) opsPerSec(wall time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	full := int(wall / rateWindow)
	if full > len(s.windows) {
		full = len(s.windows)
	}
	if full == 0 {
		n := 0
		for _, c := range s.windows {
			n += c
		}
		return float64(n) / wall.Seconds()
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(s.windows[i]) / rateWindow.Seconds()
	}
	return median(rates)
}

// into copies the outcome counts into r.
func (s *samples) into(r *report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for op, n := range s.attempted {
		r.count(op, n, s.failed[op])
	}
}

// span is one timed interval of the traced run. Spans of one operation
// share Req; Parent indexes the enclosing span (-1 for an operation's
// root). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   uint64
	byRID map[string]int // HTTP request id → client span (served workload)
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// newReq returns a fresh request identifier.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// add records a span from start lasting d and returns its index.
func (t *tracer) add(name string, parent int, req uint64, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the self time in µs of every span:
// its duration minus the part of it that its children cover. Children
// recorded here never overlap each other, so covering is their sum.
func (t *tracer) selfTimes() map[string][]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e3)
	}
	return out
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
