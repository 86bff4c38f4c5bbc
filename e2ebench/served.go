package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gsim"
	"gsim/internal/metrics"
	"gsim/internal/server"
)

// servedSpec dimensions aids-served.
type servedSpec struct {
	scale     float64
	taus      []int
	batchSize int     // queries per /v1/batch request
	cache     int     // result-cache entries
	zipfS     float64 // Zipf exponent over one endpoint's distinct requests
	mix       map[string]int
	perRound  int // requests per client per round
	clients   int
}

func (s servedSpec) withTiny(tiny bool) servedSpec {
	if tiny {
		s.scale, s.perRound = 0.03, 40
	}
	return s
}

// aidsServed takes its traffic shape from internal/load, the repo's load
// harness: its default Zipf exponent (1.2, offset 1) and the read part of
// its default mix (search 70, topk 10, stream 10), with /v1/batch in the
// stream share, as this workload sends no streams. The cache holds a third
// of the 156 distinct requests: at 40 entries top-k hit only ~56% of the
// time, which put its p50 in the gap between hits and misses, where it
// moved by a quarter between seeds.
var aidsServed = servedSpec{
	scale: 0.27, taus: []int{2, 3}, batchSize: 4, cache: 52,
	zipfS: 1.2, mix: map[string]int{"search": 7, "topk": 1, "batch": 1},
	perRound: 3000, clients: 2,
}

// endpoints are the served operation types, in a fixed order.
var endpoints = []string{"search", "topk", "batch"}

// httpReq is one distinct request of the served mix.
type httpReq struct {
	endpoint string // "search", "topk" or "batch"
	tau      int
	queries  []int
	body     []byte
}

// requests lists the distinct requests: every query at every τ̂ on
// /v1/search (prefilter on) and /v1/topk (k = 10), and a sliding window
// of batchSize queries at every τ̂ on /v1/batch.
func (s servedSpec) requests(c *corpus) []httpReq {
	var out []httpReq
	for _, tau := range s.taus {
		for i, q := range c.queries {
			opts := map[string]any{"method": "gbda", "tau": tau, "gamma": gamma, "prefilter": true}
			opts["graph"] = c.wire(q)
			out = append(out, httpReq{"search", tau, []int{q}, mustJSON(opts)})
			out = append(out, httpReq{"topk", tau, []int{q}, mustJSON(map[string]any{"method": "gbda", "tau": tau, "k": 10, "graph": c.wire(q)})})
			var win []int
			var gs []any
			for j := 0; j < s.batchSize; j++ {
				qj := c.queries[(i+j)%len(c.queries)]
				win = append(win, qj)
				gs = append(gs, c.wire(qj))
			}
			out = append(out, httpReq{"batch", tau, win, mustJSON(map[string]any{"method": "gbda", "tau": tau, "gamma": gamma, "prefilter": true, "graphs": gs})})
		}
	}
	return out
}

// sequences gives each client its round: endpoints in the fixed mix
// proportions, in seeded order, each request a seeded Zipf draw over that
// endpoint's distinct requests. The popularity ranking is fixed (query
// order, then τ̂), so every seed draws from the same distribution: the
// seed changes the sequence, not how much of it the cache absorbs or
// how costly its misses are.
func (s servedSpec) sequences(universe []httpReq, seed int64) [][]int {
	byEP := map[string][]int{}
	for i, r := range universe {
		byEP[r.endpoint] = append(byEP[r.endpoint], i)
	}
	out := make([][]int, s.clients)
	for i := range out {
		out[i] = s.sequence(byEP, rand.New(rand.NewSource(seed*31+int64(i))))
	}
	return out
}

func (s servedSpec) sequence(byEP map[string][]int, rng *rand.Rand) []int {
	zipf := map[string]*rand.Zipf{}
	for ep, ids := range byEP {
		zipf[ep] = rand.NewZipf(rng, s.zipfS, 1, uint64(len(ids)-1))
	}
	var block []string
	for _, ep := range endpoints {
		for i := 0; i < s.mix[ep]; i++ {
			block = append(block, ep)
		}
	}
	var out []int
	for len(out) < s.perRound {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, ep := range block {
			out = append(out, byEP[ep][zipf[ep].Uint64()])
		}
	}
	return out[:s.perRound]
}

// servedInst is one set-up of aids-served: the database, the server on a
// loopback listener and the goroutine serving it.
type servedInst struct {
	d    *gsim.Database
	live map[int]int
	http *http.Server
	url  string
	done chan struct{}
	log  *lineLog
}

// lineLog is the traced server's slow-query log, kept in memory.
type lineLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// startServer serves d on a fresh loopback port. traced sets the
// slow-query threshold to 1 ns with no rate limit, so every request logs
// its handler time, cache outcome and search stages.
func startServer(d *gsim.Database, spec servedSpec, traced bool) (*servedInst, error) {
	cfg := server.Config{DB: d, CacheEntries: spec.cache}
	var ll *lineLog
	if traced {
		ll = &lineLog{}
		cfg.SlowQuery, cfg.SlowLogPerSec, cfg.Logger = time.Nanosecond, -1, log.New(ll, "", 0)
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	inst := &servedInst{d: d, http: hs, url: "http://" + ln.Addr().String(), done: make(chan struct{}), log: ll}
	go func() {
		defer close(inst.done)
		hs.Serve(ln)
	}()
	return inst, nil
}

func (s *servedInst) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
}

// client is one closed-loop HTTP caller.
type client struct {
	hc  *http.Client
	url string
	id  string
	n   int
}

// wireAnswer is the part of a search, topk or batch response the checks
// read.
type wireAnswer struct {
	Matches []gsim.Match `json:"matches"`
	Results []struct {
		Matches []gsim.Match `json:"matches"`
	} `json:"results"`
}

// answers returns the matches of a response, one list per query.
func (w *wireAnswer) answers(endpoint string) [][]gsim.Match {
	if endpoint != "batch" {
		return [][]gsim.Match{w.Matches}
	}
	out := make([][]gsim.Match, len(w.Results))
	for i, r := range w.Results {
		out[i] = r.Matches
	}
	return out
}

// do sends one request and returns the response body; the latency is the
// client's, from the first byte sent to the last byte read.
func (c *client) do(req httpReq) (body []byte, rid string, d time.Duration, err error) {
	c.n++
	rid = c.id + "-" + strconv.Itoa(c.n)
	hr, err := http.NewRequest(http.MethodPost, c.url+"/v1/"+req.endpoint, bytes.NewReader(req.body))
	if err != nil {
		return nil, rid, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-Id", rid)
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, rid, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	d = time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d: %s", req.endpoint, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, rid, d, err
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}

func runServed(cfg config) (*report, error) {
	spec := aidsServed.withTiny(cfg.tiny)
	rep := newReport()
	c, err := genProfile("aids", spec.scale)
	if err != nil {
		return nil, err
	}
	universe := spec.requests(c)
	seqs := spec.sequences(universe, cfg.seed)
	warmup := map[string]int{}
	for i, r := range universe {
		if _, ok := warmup[r.endpoint]; !ok {
			warmup[r.endpoint] = i
		}
	}

	base := heapMiB()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	inst, setupS, parts, err := medianSetup(setupRepeats, func() (*servedInst, setupTimes, error) {
		var st setupTimes
		t := time.Now()
		d := gsim.New(gsim.WithName(c.ds.Name))
		live, err := c.load(d)
		if err != nil {
			return nil, st, err
		}
		st.load = time.Since(t).Seconds()
		t = time.Now()
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: priorsTauMax, Seed: priorsSeed}); err != nil {
			return nil, st, err
		}
		st.priors = time.Since(t).Seconds()
		t = time.Now()
		for _, tau := range spec.taus {
			if err := d.WarmPosteriorTables(tau); err != nil {
				return nil, st, err
			}
		}
		inst, err := startServer(d, spec, false)
		if err != nil {
			return nil, st, err
		}
		inst.live = live
		cl := &client{hc: hc, url: inst.url, id: "warm"}
		for _, ep := range endpoints {
			if _, _, _, err := cl.do(universe[warmup[ep]]); err != nil {
				inst.stop()
				return nil, st, fmt.Errorf("warm-up: %w", err)
			}
		}
		st.warm = time.Since(t).Seconds()
		return inst, st, nil
	}, func(s *servedInst) { s.stop() })
	if err != nil {
		return nil, err
	}
	heap := heapMiB() - base

	ph := runServedPhase(cfg, spec, universe, seqs, inst, hc, nil)
	inst.stop()
	ph.smp.into(rep)
	for _, v := range ph.violations {
		rep.violate("%s", v)
	}
	verifyServed(rep, c, inst, universe, ph.first)
	if !cfg.trace {
		rep.add("search_p50_us", "us", median(ph.smp.us("search")))
		rep.add("topk_p50_us", "us", median(ph.smp.us("topk")))
		rep.add("batch_qps", "1/s", batchQPS(ph.smp, spec.batchSize))
		rep.add("ops_per_s", "1/s", ph.smp.opsPerSec(ph.wall))
		var cnt metrics.Counts
		for _, tau := range spec.taus {
			c.f1All(&cnt, rep, inst.d, inst.live, tau)
		}
		rep.add("f1", "ratio", cnt.F1())
		rep.add("setup_s", "s", setupS)
		rep.add("heap_mib", "MiB", heap)
		return rep, nil
	}

	// The traced phase runs on a fresh server whose slow-query log
	// records every request, over the same database and request mix.
	tinst, err := startServer(inst.d, spec, true)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	tph := runServedPhase(cfg, spec, universe, seqs, tinst, hc, tr)
	tinst.stop()
	for _, v := range tph.violations {
		rep.violate("traced: %s", v)
	}
	lay := &layerAcc{}
	if err := tr.attachSlowLog(tinst.log, lay); err != nil {
		return nil, err
	}
	self := tr.selfTimes()
	attempted, _ := ph.smp.total()
	sl := &servedLayers{
		transportP50:   median(self["http.search"]),
		handlerSelfP50: median(append(append([]float64(nil), self["server.handler.search"]...), self["server.handler.topk"]...)),
		allocsPerReq:   ratio(float64(ph.mallocs), float64(attempted)),
		hitRatio:       ratio(float64(ph.hits), float64(ph.hits+ph.misses)),
		evictions:      float64(ph.evictions),
	}
	addServerLayers(rep, sl)
	lay.report(rep, self)
	addDurableLayers(rep, nil)
	addCommonLayers(rep, parts, ph.rt, ph.smp, median(tph.smp.us("search"))-median(ph.smp.us("search")))
	return rep, tr.write(cfg.spans)
}

// servedPhase is the outcome of one timed phase of aids-served.
type servedPhase struct {
	smp                     *samples
	wall                    time.Duration
	first                   map[int][][]gsim.Match // distinct request → its first answer
	violations              []string
	rt                      runtimeDelta
	mallocs                 uint64
	hits, misses, evictions uint64
}

// cacheStats reads the /v1/stats cache block.
func cacheStats(hc *http.Client, url string) (hits, misses, evictions uint64, err error) {
	resp, err := hc.Get(url + "/v1/stats")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Cache struct {
			Hits, Misses, Evictions uint64
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, 0, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, nil
}

// runServedPhase drives the clients' rounds until the run length has
// passed and every p95 operation type has its samples. Each answer is
// compared with the first answer to the same request.
func runServedPhase(cfg config, spec servedSpec, universe []httpReq, seqs [][]int, inst *servedInst, hc *http.Client, tr *tracer) *servedPhase {
	ph := &servedPhase{smp: newSamples(), first: map[int][][]gsim.Match{}}
	var mu sync.Mutex
	h0, m0, e0, err0 := cacheStats(hc, inst.url)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt0 := runtimeNow()
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range seqs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := &client{hc: hc, url: inst.url, id: "c" + strconv.Itoa(ci)}
			for n := 0; n == 0 || time.Since(start).Seconds() < cfg.seconds || !ph.smp.enough("search", "topk"); n++ {
				for _, ri := range seqs[ci] {
					req := universe[ri]
					t0 := time.Now()
					body, rid, d, err := cl.do(req)
					var ans wireAnswer
					if err == nil {
						if err = json.Unmarshal(body, &ans); err != nil {
							err = fmt.Errorf("decoding %s response: %w", req.endpoint, err)
						}
					}
					ph.smp.record(req.endpoint, d, err)
					if err != nil {
						mu.Lock()
						ph.violations = append(ph.violations, err.Error())
						mu.Unlock()
						continue
					}
					if tr != nil {
						tr.addClient(req.endpoint, rid, t0, d)
					}
					got := ans.answers(req.endpoint)
					mu.Lock()
					if prev, ok := ph.first[ri]; !ok {
						ph.first[ri] = got
					} else if !sameAnswers(scanOp{kind: req.endpoint}, prev, got) {
						ph.violations = append(ph.violations, fmt.Sprintf("%s over queries %v: answer changed between requests", req.endpoint, req.queries))
					}
					mu.Unlock()
				}
			}
		}(ci)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.rt = runtimeNow().since(rt0)
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	h1, m1, e1, err1 := cacheStats(hc, inst.url)
	if err0 != nil || err1 != nil {
		ph.violations = append(ph.violations, fmt.Sprintf("/v1/stats: %v %v", err0, err1))
	}
	ph.hits, ph.misses, ph.evictions = h1-h0, m1-m0, e1-e0
	return ph
}

// verifyServed checks every distinct request answered over HTTP against
// the in-process answer to the same request, then runs the in-process
// checks on those answers: prefilter admissibility for searches, top-k
// against the ranked CollectAll scan, and batch against per-query Search.
func verifyServed(rep *report, c *corpus, inst *servedInst, universe []httpReq, first map[int][][]gsim.Match) {
	d := inst.d
	for ri, got := range first {
		req := universe[ri]
		qs := make([]*gsim.Query, len(req.queries))
		for i, ci := range req.queries {
			qs[i] = c.query(d, ci)
		}
		spec := scanSpec{tau: req.tau, k: 10}
		opts := gsim.SearchOptions{Method: gsim.GBDA, Tau: req.tau, Gamma: gamma, Prefilter: true}
		var want [][]gsim.Match
		switch req.endpoint {
		case "search":
			res, err := d.Search(qs[0], opts)
			if err != nil {
				rep.violate("in-process search: %v", err)
				continue
			}
			want = [][]gsim.Match{res.Matches}
		case "topk":
			res, err := d.SearchTopK(qs[0], gsim.TopKOptions{Method: gsim.GBDA, K: spec.k, Tau: req.tau})
			if err != nil {
				rep.violate("in-process topk: %v", err)
				continue
			}
			want = [][]gsim.Match{res.Matches}
		case "batch":
			res, err := d.SearchBatch(context.Background(), qs, opts)
			if err != nil {
				rep.violate("in-process batch: %v", err)
				continue
			}
			for _, r := range res {
				want = append(want, r.Matches)
			}
		}
		if !sameAnswers(scanOp{kind: req.endpoint}, want, got) {
			rep.violate("HTTP %s over queries %v differs from the in-process answer", req.endpoint, req.queries)
		}
		verifyScan(rep, scanInst{d, inst.live}, c, spec, []scanOp{{req.endpoint, req.queries}}, [][][]gsim.Match{got})
	}
}

// addClient records a client span, keyed by its request id so the
// server's slow-log line can be attached under it.
func (t *tracer) addClient(endpoint, rid string, start time.Time, d time.Duration) {
	t.mu.Lock()
	if t.byRID == nil {
		t.byRID = map[string]int{}
	}
	t.req++
	req := t.req
	t.mu.Unlock()
	i := t.add("http."+endpoint, -1, req, start, d)
	t.mu.Lock()
	t.byRID[rid] = i
	t.mu.Unlock()
}

// attachSlowLog parses the traced server's slow-query lines and adds,
// under each client span, the handler span and the search stages it ran.
// The log gives durations only: the handler is centred in the client span
// and the stages laid end to end from the handler's start.
func (t *tracer) attachSlowLog(ll *lineLog, lay *layerAcc) error {
	for _, line := range strings.Split(ll.buf.String(), "\n") {
		if !strings.HasPrefix(line, "slow query ") {
			continue
		}
		kv := map[string]string{}
		for _, f := range strings.Fields(line[len("slow query "):]) {
			if k, v, ok := strings.Cut(f, "="); ok {
				kv[k] = v
			}
		}
		ci, ok := t.byRID[kv["id"]]
		if !ok {
			continue
		}
		dur, err := time.ParseDuration(kv["dur"])
		if err != nil {
			return fmt.Errorf("slow log %q: %w", line, err)
		}
		ep := strings.TrimPrefix(kv["endpoint"], "/v1/")
		cs := t.spans[ci]
		hs := t.t0.Add(time.Duration(cs.Start + (cs.End-cs.Start-dur.Nanoseconds())/2))
		h := t.add("server.handler."+ep, ci, cs.Req, hs, dur)
		if _, ok := kv["prepare"]; !ok {
			continue
		}
		var st [4]time.Duration
		for i, k := range []string{"prepare", "cut", "scan", "merge"} {
			if st[i], err = time.ParseDuration(kv[k]); err != nil {
				return fmt.Errorf("slow log %q: %w", line, err)
			}
		}
		prep := t.add("search.prepare", h, cs.Req, hs, st[0])
		t.add("search.cut", prep, cs.Req, hs, st[1])
		t.add("search.scan", h, cs.Req, hs.Add(st[0]), st[2])
		t.add("search.merge", h, cs.Req, hs.Add(st[0]+st[2]), st[3])
		if ep == "search" {
			scanned, _ := strconv.Atoi(kv["scanned"])
			pruned, _ := strconv.Atoi(kv["pruned"])
			lay.preScanned += int64(scanned)
			lay.prePruned += int64(pruned)
		}
	}
	return nil
}
