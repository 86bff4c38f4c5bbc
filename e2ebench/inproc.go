package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"gsim"
	"gsim/internal/metrics"
)

// Every workload searches with the paper's method at this confidence.
const gamma = 0.9

// priorsTauMax is the threshold ceiling the priors are fitted for; every
// workload's τ̂ lies below it.
const priorsTauMax = 10

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// scanOp is one in-process read: a prefiltered range query, a top-k
// ranking or a range-query batch over several queries.
type scanOp struct {
	kind    string // "search", "topk" or "batch"
	queries []int  // collection indexes; one for search and topk
}

// scanSpec dimensions an in-process scan workload.
type scanSpec struct {
	tau, k          int
	searches, topks int // per round, each over a seeded query pick
	batchSize       int // queries per batch operation; one batch per round
}

func runAASDScan(cfg config) (*report, error) {
	scale := 1.0
	spec := scanSpec{tau: 3, k: 10, searches: 48, topks: 24, batchSize: 64}
	if cfg.tiny {
		scale, spec.searches, spec.topks, spec.batchSize = 0.02, 4, 3, 8
	}
	c, err := genProfile("aasd", scale)
	if err != nil {
		return nil, err
	}
	return runScan(cfg, c, spec)
}

func runSynLarge(cfg config) (*report, error) {
	size, graphs := 2000, 300
	if cfg.tiny {
		size, graphs = 1000, 100
	}
	c, err := genSyn(size, graphs)
	if err != nil {
		return nil, err
	}
	n := len(c.queries)
	return runScan(cfg, c, scanSpec{tau: 10, k: 10, searches: n, topks: n, batchSize: n})
}

// round is the seeded operation sequence every round repeats. Each pick
// of n queries is stratified: the queries are ordered by vertex count and
// cut into n strata, and one query is drawn from each, so every seed
// covers the same range of query sizes and the seed changes which
// queries run, not how costly the round is. The order is shuffled.
func (s scanSpec) round(c *corpus, seed int64) []scanOp {
	rng := rand.New(rand.NewSource(seed))
	bySize := append([]int(nil), c.queries...)
	sort.Slice(bySize, func(i, j int) bool {
		vi, vj := c.ds.Col.Graph(bySize[i]).NumVertices(), c.ds.Col.Graph(bySize[j]).NumVertices()
		return vi < vj || vi == vj && bySize[i] < bySize[j]
	})
	pick := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			lo, hi := i*len(bySize)/n, (i+1)*len(bySize)/n
			if hi <= lo {
				hi = lo + 1
			}
			out[i] = bySize[(lo+rng.Intn(hi-lo))%len(bySize)]
		}
		return out
	}
	var ops []scanOp
	for _, q := range pick(s.searches) {
		ops = append(ops, scanOp{"search", []int{q}})
	}
	for _, q := range pick(s.topks) {
		ops = append(ops, scanOp{"topk", []int{q}})
	}
	ops = append(ops, scanOp{"batch", pick(s.batchSize)})
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// reads issues the in-process read operations of the scan and durable
// workloads against one database and records what the trace needs.
type reads struct {
	d   *gsim.Database
	c   *corpus
	tau int
	k   int
	qs  map[int]*gsim.Query
	tr  *tracer
	lay *layerAcc
	smp *samples
}

func (r *reads) q(ci int) *gsim.Query {
	q, ok := r.qs[ci]
	if !ok {
		q = r.c.query(r.d, ci)
		r.qs[ci] = q
	}
	return q
}

func (r *reads) searchOpts(trace bool) gsim.SearchOptions {
	return gsim.SearchOptions{Method: gsim.GBDA, Tau: r.tau, Gamma: gamma, Prefilter: true, Trace: trace}
}

// do runs one operation and returns its answers (one per query).
func (r *reads) do(op scanOp) ([][]gsim.Match, error) {
	trace := r.tr != nil
	req := r.tr.newReq()
	start := time.Now()
	switch op.kind {
	case "search":
		res, err := r.d.Search(r.q(op.queries[0]), r.searchOpts(trace))
		d := time.Since(start)
		r.smp.record("search", d, err)
		if err != nil {
			return nil, err
		}
		r.lay.stages(r.tr, "search", req, start, d, res, true)
		return [][]gsim.Match{res.Matches}, nil
	case "topk":
		res, err := r.d.SearchTopK(r.q(op.queries[0]), gsim.TopKOptions{Method: gsim.GBDA, K: r.k, Tau: r.tau, Trace: trace})
		d := time.Since(start)
		r.smp.record("topk", d, err)
		if err != nil {
			return nil, err
		}
		r.lay.stages(r.tr, "topk", req, start, d, res, false)
		return [][]gsim.Match{res.Matches}, nil
	case "batch":
		qs := make([]*gsim.Query, len(op.queries))
		for i, ci := range op.queries {
			qs[i] = r.q(ci)
		}
		res, err := r.d.SearchBatch(context.Background(), qs, r.searchOpts(trace))
		d := time.Since(start)
		r.smp.record("batch", d, err)
		if err != nil {
			return nil, err
		}
		r.lay.batch(r.tr, req, start, d, res)
		out := make([][]gsim.Match, len(res))
		for i, x := range res {
			out[i] = x.Matches
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown operation %q", op.kind)
}

// layerAcc sums the traced stage split of in-process searches.
type layerAcc struct {
	prefilterNS, scoreNS, scanNS int64 // search and top-k scans
	scored                       int64 // entries scored by search and top-k
	preScanned, prePruned        int64 // prefiltered searches only
	batchScanNS, batchPairs      int64
}

// stages records the spans of one traced search or top-k: the operation
// as the caller saw it, and the program's stages laid end to end inside
// it (Result.Stages gives durations, not start times).
func (l *layerAcc) stages(tr *tracer, op string, req uint64, start time.Time, d time.Duration, res *gsim.Result, prefiltered bool) {
	if tr == nil {
		return
	}
	st := res.Stages
	root := tr.add("op."+op, -1, req, start, d)
	at := start
	prep := tr.add("search.prepare", root, req, at, time.Duration(st.PrepareNS))
	tr.add("search.cut", prep, req, at, time.Duration(st.CutNS))
	at = at.Add(time.Duration(st.PrepareNS))
	tr.add("search.scan", root, req, at, time.Duration(st.ScanNS))
	at = at.Add(time.Duration(st.ScanNS))
	tr.add("search.merge", root, req, at, time.Duration(st.MergeNS))
	l.prefilterNS += st.PrefilterNS
	l.scoreNS += st.ScoreNS
	l.scanNS += st.ScanNS
	l.scored += int64(res.Scanned - st.Pruned)
	if prefiltered {
		l.preScanned += int64(res.Scanned)
		l.prePruned += int64(st.Pruned)
	}
}

// batch records the spans of one traced batch: the caller's view and the
// shared scan.
func (l *layerAcc) batch(tr *tracer, req uint64, start time.Time, d time.Duration, res []*gsim.Result) {
	if tr == nil || len(res) == 0 {
		return
	}
	st := res[0].Stages
	root := tr.add("op.batch", -1, req, start, d)
	tr.add("batch.scan", root, req, start.Add(time.Duration(st.PrepareNS)), time.Duration(st.ScanNS))
	l.batchScanNS += st.ScanNS
	l.batchPairs += int64(res[0].Scanned) * int64(len(res))
}

// report adds the search-pipeline, index, method and engine layer
// metrics.
func (l *layerAcc) report(rep *report, self map[string][]float64) {
	rep.add("search.prepare_p50_us", "us", median(self["search.prepare"]))
	rep.add("search.cut_p50_us", "us", median(self["search.cut"]))
	rep.add("search.scan_p50_us", "us", median(self["search.scan"]))
	rep.add("search.merge_p50_us", "us", median(self["search.merge"]))
	rep.add("index.prefilter_ns_per_entry", "ns", ratio(float64(l.prefilterNS), float64(l.preScanned)))
	rep.add("index.pruned_ratio", "ratio", ratio(float64(l.prePruned), float64(l.preScanned)))
	rep.add("method.score_ns_per_pair", "ns", ratio(float64(l.scoreNS), float64(l.scored)))
	rep.add("engine.scan_cpu_per_wall", "ratio", ratio(float64(l.prefilterNS+l.scoreNS), float64(l.scanNS)))
	rep.add("engine.batch_ns_per_pair", "ns", ratio(float64(l.batchScanNS), float64(l.batchPairs)))
}

// runtimeDelta measures the Go runtime's allocation and GC work over a
// phase.
type runtimeDelta struct{ alloc, gc uint64 }

func runtimeNow() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{ms.TotalAlloc, uint64(ms.NumGC)}
}

func (a runtimeDelta) since(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.alloc - b.alloc, a.gc - b.gc}
}

// scanInst is one set-up of an in-process scan workload.
type scanInst struct {
	d    *gsim.Database
	live map[int]int
}

func runScan(cfg config, c *corpus, spec scanSpec) (*report, error) {
	rep := newReport()
	round := spec.round(c, cfg.seed)
	base := heapMiB()
	inst, setupS, parts, err := medianSetup(setupRepeats, func() (scanInst, setupTimes, error) {
		var st setupTimes
		t := time.Now()
		d := gsim.New(gsim.WithName(c.ds.Name))
		live, err := c.load(d)
		if err != nil {
			return scanInst{}, st, err
		}
		st.load = time.Since(t).Seconds()
		t = time.Now()
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: priorsTauMax, Seed: priorsSeed}); err != nil {
			return scanInst{}, st, err
		}
		st.priors = time.Since(t).Seconds()
		t = time.Now()
		if err := d.WarmPosteriorTables(spec.tau); err != nil {
			return scanInst{}, st, err
		}
		// One untimed pass of each operation type: prefilter state, the
		// projection memo and the posterior tables are built here.
		r := &reads{d: d, c: c, tau: spec.tau, k: spec.k, qs: map[int]*gsim.Query{}, smp: newSamples(), lay: &layerAcc{}}
		for _, kind := range []string{"search", "topk", "batch"} {
			for _, op := range round {
				if op.kind == kind {
					if _, err := r.do(op); err != nil {
						return scanInst{}, st, fmt.Errorf("warm-up %s: %w", kind, err)
					}
					break
				}
			}
		}
		st.warm = time.Since(t).Seconds()
		return scanInst{d, live}, st, nil
	}, func(scanInst) {})
	if err != nil {
		return nil, err
	}
	heap := heapMiB() - base

	// Queries are prepared once, as a caller holding its workload would.
	qs := map[int]*gsim.Query{}
	for _, op := range round {
		for _, ci := range op.queries {
			if _, ok := qs[ci]; !ok {
				qs[ci] = c.query(inst.d, ci)
			}
		}
	}
	phase := func(tr *tracer) (*samples, *layerAcc, [][][]gsim.Match, time.Duration, runtimeDelta) {
		r := &reads{d: inst.d, c: c, tau: spec.tau, k: spec.k, qs: qs, tr: tr, lay: &layerAcc{}, smp: newSamples()}
		first := make([][][]gsim.Match, len(round))
		rt0 := runtimeNow()
		start := time.Now()
		for n := 0; n == 0 || time.Since(start).Seconds() < cfg.seconds || !r.smp.enough("search", "topk"); n++ {
			for i, op := range round {
				ans, err := r.do(op)
				if err != nil {
					continue
				}
				if n == 0 {
					first[i] = ans
				} else if !sameAnswers(op, first[i], ans) {
					rep.violate("%s over queries %v: round %d answered differently from round 0", op.kind, op.queries, n)
				}
			}
		}
		return r.smp, r.lay, first, time.Since(start), runtimeNow().since(rt0)
	}

	smp, _, answers, wall, rt := phase(nil)
	smp.into(rep)
	verifyScan(rep, inst, c, spec, round, answers)
	if !cfg.trace {
		rep.add("search_p50_us", "us", median(smp.us("search")))
		rep.add("topk_p50_us", "us", median(smp.us("topk")))
		rep.add("batch_qps", "1/s", batchQPS(smp, spec.batchSize))
		rep.add("ops_per_s", "1/s", smp.opsPerSec(wall))
		var cnt metrics.Counts
		c.f1All(&cnt, rep, inst.d, inst.live, spec.tau)
		rep.add("f1", "ratio", cnt.F1())
		rep.add("setup_s", "s", setupS)
		rep.add("heap_mib", "MiB", heap)
		return rep, nil
	}
	tr := newTracer(true)
	tsmp, lay, _, _, _ := phase(tr)
	self := tr.selfTimes()
	addServerLayers(rep, nil)
	lay.report(rep, self)
	addDurableLayers(rep, nil)
	addCommonLayers(rep, parts, rt, smp, median(tsmp.us("search"))-median(smp.us("search")))
	return rep, tr.write(cfg.spans)
}

// sameAnswers compares two executions of one operation.
func sameAnswers(op scanOp, a, b [][]gsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if op.kind == "topk" && !sameRanking(a[i], b[i]) || op.kind != "topk" && !sameMatches(a[i], b[i]) {
			return false
		}
	}
	return true
}

// batchQPS is the queries per second of the median batch: a median, so a
// few batches caught in a stall of the machine do not move it.
func batchQPS(smp *samples, batchSize int) float64 {
	return ratio(float64(batchSize), median(smp.us("batch"))/1e6)
}

// verifyScan runs the output checks of an in-process workload on the
// answers of one round: prefilter admissibility against an unfiltered
// scan, top-k against the benchmark's own ranking of a CollectAll scan,
// and each batch answer against the per-query Search.
func verifyScan(rep *report, inst scanInst, c *corpus, spec scanSpec, round []scanOp, answers [][][]gsim.Match) {
	d := inst.d
	opts := gsim.SearchOptions{Method: gsim.GBDA, Tau: spec.tau, Gamma: gamma, Prefilter: true}
	for i, op := range round {
		if answers[i] == nil {
			continue
		}
		for j, ci := range op.queries {
			q := c.query(d, ci)
			got := answers[i][j]
			switch op.kind {
			case "search":
				un := opts
				un.Prefilter = false
				res, err := d.Search(q, un)
				if err != nil {
					rep.violate("unfiltered search of query %d: %v", ci, err)
					continue
				}
				c.checkAdmissible(rep, inst.live, ci, spec.tau, got, res.Matches)
			case "topk":
				res, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: spec.tau, CollectAll: true})
				if err != nil {
					rep.violate("CollectAll scan of query %d: %v", ci, err)
					continue
				}
				if want := rankTopK(res.Matches, spec.k); !sameRanking(got, want) {
					rep.violate("top-%d of query %d differs from the ranked CollectAll scan", spec.k, ci)
				}
			case "batch":
				res, err := d.Search(q, opts)
				if err != nil {
					rep.violate("search of batch query %d: %v", ci, err)
					continue
				}
				if !sameMatches(got, res.Matches) {
					rep.violate("batch answer of query %d differs from its Search answer", ci)
				}
			}
		}
	}
}
