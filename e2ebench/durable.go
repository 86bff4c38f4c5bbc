package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gsim"
	"gsim/internal/metrics"
	"gsim/internal/telemetry"
)

// durSpec dimensions aids-durable-mixed.
type durSpec struct {
	scale     float64
	tau, k    int
	clients   int
	slots     int // graphs each client owns and rewrites every round
	reads     int // reads after every write
	batchSize int
	recovers  int // crash-image reopenings; recover_s is their median
}

var aidsDurable = durSpec{scale: 1, tau: 3, k: 10, clients: 2, slots: 32, reads: 16, batchSize: 8, recovers: 3}

// durOp is one step of a client's round: a read, a write or a checkpoint.
type durOp struct {
	kind string // "search", "topk", "batch", "away", "back" or "checkpoint"
	slot int
	read scanOp
}

// slot is one graph a client owns: the collection graph it holds at the
// start of every round, the graph an update swaps in, and whether the
// slot is rewritten by Update/Update or by Delete/Store.
type slot struct {
	orig, alt int
	viaDelete bool
	id        int // current graph ID
}

// durClient is one closed-loop caller with its own slots and its seeded
// round.
type durClient struct {
	slots []slot
	round []durOp
}

// plan gives each client its slots and its round. Every round first moves
// a slot away (Update to the generated graph next to it in size order, or
// Delete) and, a few reads later, back (Update to the original, or Store
// of the original under a fresh ID), so each round ends with the contents
// it started with and the live count never drifts by more than one graph
// per client. Reads walk a seeded permutation of all queries, so every
// query is read equally often whatever the seed. Client 0 checkpoints
// once, halfway through its round.
func (s durSpec) plan(c *corpus, live map[int]int, seed int64) []*durClient {
	rng := rand.New(rand.NewSource(seed))
	bySize := append([]int(nil), c.ds.DBGraphs...)
	sort.Slice(bySize, func(i, j int) bool {
		vi, vj := c.ds.Col.Graph(bySize[i]).NumVertices(), c.ds.Col.Graph(bySize[j]).NumVertices()
		return vi < vj || vi == vj && bySize[i] < bySize[j]
	})
	rank := map[int]int{}
	for i, ci := range bySize {
		rank[ci] = i
	}
	ids := rng.Perm(len(live))
	clients := make([]*durClient, s.clients)
	for ci := range clients {
		cl := &durClient{}
		for j := 0; j < s.slots; j++ {
			id := ids[ci*s.slots+j]
			alt := bySize[(rank[live[id]]+1)%len(bySize)]
			cl.slots = append(cl.slots, slot{orig: live[id], alt: alt, viaDelete: j%2 == 1, id: id})
		}
		perm := rng.Perm(len(c.queries))
		next := 0
		query := func() int {
			q := c.queries[perm[next%len(perm)]]
			next++
			return q
		}
		addReads := func() {
			for r := 0; r < s.reads; r++ {
				switch x := rng.Intn(20); {
				case x < 10:
					cl.round = append(cl.round, durOp{kind: "search", read: scanOp{"search", []int{query()}}})
				case x < 17:
					cl.round = append(cl.round, durOp{kind: "topk", read: scanOp{"topk", []int{query()}}})
				default:
					qs := make([]int, s.batchSize)
					for i := range qs {
						qs[i] = query()
					}
					cl.round = append(cl.round, durOp{kind: "batch", read: scanOp{"batch", qs}})
				}
			}
		}
		for j, sj := range rng.Perm(s.slots) {
			if ci == 0 && j == s.slots/2 {
				cl.round = append(cl.round, durOp{kind: "checkpoint"})
			}
			cl.round = append(cl.round, durOp{kind: "away", slot: sj})
			addReads()
			cl.round = append(cl.round, durOp{kind: "back", slot: sj})
			addReads()
		}
		clients[ci] = cl
	}
	return clients
}

// durInst is one set-up of aids-durable-mixed.
type durInst struct {
	d    *gsim.Database
	dir  string
	live map[int]int
	mu   sync.Mutex // guards live: the map of acknowledged mutations
}

func (s *durInst) drop() {
	s.d.Close()
	os.RemoveAll(s.dir)
}

// write applies the away or back move of one slot and, once it is
// acknowledged, records it in the live map.
func (s *durInst) write(c *corpus, sl *slot, away bool, smp *samples, tr *tracer) {
	var (
		op    string
		err   error
		newID int
	)
	target := sl.orig
	if away {
		target = sl.alt
	}
	start := time.Now()
	switch {
	case !sl.viaDelete:
		op = "update"
		err = c.builder(s.d, target).Update(sl.id)
	case away:
		op = "delete"
		err = s.d.Delete(sl.id)
	default:
		op = "store"
		newID, err = c.builder(s.d, sl.orig).Store()
	}
	d := time.Since(start)
	smp.record(op, d, err)
	tr.add("op."+op, -1, tr.newReq(), start, d)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case "update":
		s.live[sl.id] = target
	case "delete":
		delete(s.live, sl.id)
	case "store":
		sl.id = newID
		s.live[newID] = sl.orig
	}
}

// durPhase is what one timed phase of aids-durable-mixed measured.
type durPhase struct {
	smp         *samples
	lay         *layerAcc
	wall        time.Duration
	rt          runtimeDelta
	checkpoints []gsim.CheckpointStats
	hists       [2]histSet // program histograms before and after
}

// histSet snapshots the program's mutation and WAL histograms.
type histSet struct{ add, update, del, append_, fsync, wait telemetry.Snapshot }

func snapHists(d *gsim.Database) histSet {
	var h histSet
	st, wt := d.StoreTelemetry(), d.WALTelemetry()
	st.Mut[telemetry.OpAdd].Load(&h.add)
	st.Mut[telemetry.OpUpdate].Load(&h.update)
	st.Mut[telemetry.OpDelete].Load(&h.del)
	wt.Append.Load(&h.append_)
	wt.Fsync.Load(&h.fsync)
	wt.Wait.Load(&h.wait)
	return h
}

// deltaP50 is the median (µs) of what a histogram recorded between two
// snapshots; count is the number of records.
func deltaP50(a, b *telemetry.Snapshot) (p50us float64, count uint64) {
	var d telemetry.Snapshot
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	d.Count, d.SumNS = b.Count-a.Count, b.SumNS-a.SumNS
	return float64(d.Quantile(0.5)) / 1e3, d.Count
}

func runDurPhase(cfg config, spec durSpec, c *corpus, inst *durInst, clients []*durClient, tr *tracer) *durPhase {
	ph := &durPhase{smp: newSamples(), lay: &layerAcc{}}
	var mu sync.Mutex
	// Queries are prepared once and shared read-only by the clients.
	qs := map[int]*gsim.Query{}
	for _, ci := range c.queries {
		qs[ci] = c.query(inst.d, ci)
	}
	ph.hists[0] = snapHists(inst.d)
	rt0 := runtimeNow()
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *durClient) {
			defer wg.Done()
			r := &reads{d: inst.d, c: c, tau: spec.tau, k: spec.k, qs: qs, tr: tr, lay: &layerAcc{}, smp: ph.smp}
			for n := 0; n == 0 || time.Since(start).Seconds() < cfg.seconds || !ph.smp.enough("search", "topk") || len(writeLat(ph.smp)) < minP95Samples; n++ {
				for _, op := range cl.round {
					switch op.kind {
					case "away", "back":
						inst.write(c, &cl.slots[op.slot], op.kind == "away", ph.smp, tr)
					case "checkpoint":
						t0 := time.Now()
						st, err := inst.d.Checkpoint()
						ph.smp.record("checkpoint", time.Since(t0), err)
						tr.add("op.checkpoint", -1, tr.newReq(), t0, time.Since(t0))
						if err == nil {
							mu.Lock()
							ph.checkpoints = append(ph.checkpoints, st)
							mu.Unlock()
						}
					default:
						r.do(op.read)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.lay.add(r.lay)
		}(cl)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.rt = runtimeNow().since(rt0)
	ph.hists[1] = snapHists(inst.d)
	return ph
}

// add merges another accumulator.
func (l *layerAcc) add(o *layerAcc) {
	l.prefilterNS += o.prefilterNS
	l.scoreNS += o.scoreNS
	l.scanNS += o.scanNS
	l.scored += o.scored
	l.preScanned += o.preScanned
	l.prePruned += o.prePruned
	l.batchScanNS += o.batchScanNS
	l.batchPairs += o.batchPairs
}

// writeLat is every acknowledged write's latency (µs).
func writeLat(smp *samples) []float64 {
	var out []float64
	for _, op := range []string{"store", "update", "delete"} {
		out = append(out, smp.us(op)...)
	}
	return out
}

func runDurable(cfg config) (*report, error) {
	spec := aidsDurable
	if cfg.tiny {
		spec.scale, spec.slots, spec.recovers = 0.03, 4, 1
	}
	rep := newReport()
	c, err := genProfile("aids", spec.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.scratch, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	base := heapMiB()
	n := 0
	inst, setupS, parts, err := medianSetup(setupRepeats, func() (*durInst, setupTimes, error) {
		var st setupTimes
		n++
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", n))
		t := time.Now()
		d, err := gsim.Open(dir)
		if err != nil {
			return nil, st, err
		}
		inst := &durInst{d: d, dir: dir}
		fail := func(err error) (*durInst, setupTimes, error) {
			inst.drop()
			return nil, st, err
		}
		if inst.live, err = c.load(d); err != nil {
			return fail(err)
		}
		if _, err := d.Checkpoint(); err != nil {
			return fail(err)
		}
		st.load = time.Since(t).Seconds()
		t = time.Now()
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: priorsTauMax, Seed: priorsSeed}); err != nil {
			return fail(err)
		}
		st.priors = time.Since(t).Seconds()
		t = time.Now()
		if err := d.WarmPosteriorTables(spec.tau); err != nil {
			return fail(err)
		}
		r := &reads{d: d, c: c, tau: spec.tau, k: spec.k, qs: map[int]*gsim.Query{}, smp: newSamples(), lay: &layerAcc{}}
		q := []int{c.queries[0]}
		for _, op := range []scanOp{{"search", q}, {"topk", q}, {"batch", q}} {
			if _, err := r.do(op); err != nil {
				return fail(fmt.Errorf("warm-up %s: %w", op.kind, err))
			}
		}
		// The write warm-up rewrites graph 0 with itself.
		if err := c.builder(d, inst.live[0]).Update(0); err != nil {
			return fail(fmt.Errorf("warm-up update: %w", err))
		}
		st.warm = time.Since(t).Seconds()
		return inst, st, nil
	}, func(s *durInst) { s.drop() })
	if err != nil {
		return nil, err
	}
	defer inst.drop()
	heap := heapMiB() - base

	clients := spec.plan(c, inst.live, cfg.seed)
	ph := runDurPhase(cfg, spec, c, inst, clients, nil)
	ph.smp.into(rep)
	var tph *durPhase
	var tr *tracer
	if cfg.trace {
		tr = newTracer(true)
		tph = runDurPhase(cfg, spec, c, inst, clients, tr)
	}
	dl, f1, err := verifyDurable(rep, cfg, spec, c, inst, work)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.add("search_p50_us", "us", median(ph.smp.us("search")))
		rep.add("topk_p50_us", "us", median(ph.smp.us("topk")))
		rep.add("batch_qps", "1/s", batchQPS(ph.smp, spec.batchSize))
		rep.add("ops_per_s", "1/s", ph.smp.opsPerSec(ph.wall))
		rep.add("f1", "ratio", f1)
		rep.add("setup_s", "s", setupS)
		rep.add("heap_mib", "MiB", heap)
		return rep, nil
	}
	h0, h1 := ph.hists[0], ph.hists[1]
	dl.addP50, _ = deltaP50(&h0.add, &h1.add)
	dl.updateP50, _ = deltaP50(&h0.update, &h1.update)
	dl.deleteP50, _ = deltaP50(&h0.del, &h1.del)
	var appends, fsyncs uint64
	dl.appendP50, appends = deltaP50(&h0.append_, &h1.append_)
	dl.fsyncP50, fsyncs = deltaP50(&h0.fsync, &h1.fsync)
	dl.waitP50, _ = deltaP50(&h0.wait, &h1.wait)
	dl.recordsPerFsync = ratio(float64(appends), float64(fsyncs))
	var cpMS, cpMiB []float64
	for _, st := range ph.checkpoints {
		cpMS = append(cpMS, float64(st.Duration.Nanoseconds())/1e6)
		cpMiB = append(cpMiB, float64(st.BytesWritten)/(1<<20))
	}
	dl.checkpointP50ms, dl.checkpointMiB = median(cpMS), median(cpMiB)
	dl.writeP50 = median(writeLat(ph.smp))
	dl.writeP95 = quantile(writeLat(ph.smp), 0.95)
	addServerLayers(rep, nil)
	tph.lay.report(rep, tr.selfTimes())
	addDurableLayers(rep, dl)
	addCommonLayers(rep, parts, ph.rt, ph.smp, median(tph.smp.us("search"))-median(ph.smp.us("search")))
	return rep, tr.write(cfg.spans)
}

// verifyDurable runs the end-of-sequence checks of aids-durable-mixed and
// measures recovery and disk use:
//   - every query's answer on the final live store is scored against the
//     truth of that store, and checked for prefilter admissibility, top-k
//     ranking and batch agreement;
//   - the directory is copied as it stands after the last acknowledgement
//     (a crash image), the store is closed, and both the crash image and
//     the closed directory are reopened; each must hold exactly the
//     acknowledged graphs and answer every query as the live store did.
func verifyDurable(rep *report, cfg config, spec durSpec, c *corpus, inst *durInst, work string) (*durableLayers, float64, error) {
	d := inst.d
	dl := &durableLayers{}
	var round []scanOp
	for _, q := range c.queries {
		round = append(round, scanOp{"search", []int{q}}, scanOp{"topk", []int{q}})
	}
	round = append(round, scanOp{"batch", c.queries})
	r := &reads{d: d, c: c, tau: spec.tau, k: spec.k, qs: map[int]*gsim.Query{}, smp: newSamples(), lay: &layerAcc{}}
	answers := make([][][]gsim.Match, len(round))
	for i, op := range round {
		ans, err := r.do(op)
		if err != nil {
			rep.violate("final %s over queries %v: %v", op.kind, op.queries, err)
			continue
		}
		answers[i] = ans
	}
	si := scanInst{d, inst.live}
	ss := scanSpec{tau: spec.tau, k: spec.k}
	verifyScan(rep, si, c, ss, round, answers)
	var cnt metrics.Counts
	c.f1All(&cnt, rep, d, inst.live, spec.tau)
	f1 := cnt.F1()

	var priors bytes.Buffer
	if err := d.SavePriors(&priors); err != nil {
		return nil, 0, err
	}
	ps := d.PersistStats()
	dl.replayRecords = float64(ps.WALRecords)
	dl.bytesPerWrite = ratio(float64(ps.WALBytes), float64(ps.WALRecords))
	var crashes []string
	for i := 0; i < spec.recovers; i++ {
		dst := filepath.Join(work, fmt.Sprintf("crash-%d", i))
		if err := copyDir(inst.dir, dst); err != nil {
			return nil, 0, err
		}
		crashes = append(crashes, dst)
	}
	if err := d.Close(); err != nil {
		return nil, 0, fmt.Errorf("closing the live store: %w", err)
	}
	size, err := dirSize(inst.dir)
	if err != nil {
		return nil, 0, err
	}
	dl.diskMiB = float64(size) / (1 << 20)

	var recoverS []float64
	for i, dir := range append(crashes, inst.dir) {
		t := time.Now()
		rd, err := gsim.Open(dir)
		if err != nil {
			rep.violate("reopening %s: %v", filepath.Base(dir), err)
			continue
		}
		if i < len(crashes) {
			recoverS = append(recoverS, time.Since(t).Seconds())
		}
		if i == 0 || i == len(crashes) {
			checkReopened(rep, c, spec, rd, inst.live, round, answers, priors.Bytes(), filepath.Base(dir))
		}
		if err := rd.Close(); err != nil {
			rep.violate("closing reopened %s: %v", filepath.Base(dir), err)
		}
	}
	dl.recoverS = median(recoverS)
	return dl, f1, nil
}

// checkReopened compares a reopened store with the map of acknowledged
// mutations (its CollectAll scan must list exactly the live IDs under the
// right names) and every answer with the live store's.
func checkReopened(rep *report, c *corpus, spec durSpec, d *gsim.Database, live map[int]int, round []scanOp, answers [][][]gsim.Match, priors []byte, name string) {
	if err := d.LoadPriors(bytes.NewReader(priors)); err != nil {
		rep.violate("%s: loading priors: %v", name, err)
		return
	}
	all, err := d.Search(c.query(d, c.queries[0]), gsim.SearchOptions{Method: gsim.GBDA, Tau: spec.tau, CollectAll: true})
	if err != nil {
		rep.violate("%s: listing the store: %v", name, err)
		return
	}
	if len(all.Matches) != len(live) {
		rep.violate("%s holds %d graphs, %d were acknowledged", name, len(all.Matches), len(live))
	}
	for _, m := range all.Matches {
		if ci, ok := live[m.Index]; !ok || c.ds.Col.Graph(ci).Name != m.Name {
			rep.violate("%s: graph %d (%q) is not the acknowledged one", name, m.Index, m.Name)
		}
	}
	r := &reads{d: d, c: c, tau: spec.tau, k: spec.k, qs: map[int]*gsim.Query{}, smp: newSamples(), lay: &layerAcc{}}
	for i, op := range round {
		got, err := r.do(op)
		if err != nil || answers[i] == nil {
			rep.violate("%s: %s over queries %v: %v", name, op.kind, op.queries, err)
			continue
		}
		if !sameAnswers(op, answers[i], got) {
			rep.violate("%s: %s over queries %v differs from the live store", name, op.kind, op.queries)
		}
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirSize(dir string) (int64, error) {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
