package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"gsim"
	"gsim/internal/dataset"
	"gsim/internal/graph"
	"gsim/internal/metrics"
)

// corpus is one workload's generated input: the dataset with its
// certified ground truth, the searched graphs rendered as .gsim text in
// load order, and the query workload.
type corpus struct {
	ds      *dataset.Dataset
	text    []byte
	queries []int // collection indexes of the query graphs
}

// The corpora are fixtures: each profile is generated from its own fixed
// seed and the priors are fitted from priorsSeed, so runs under different
// benchmark seeds search the same data and differ only in their operation
// sequences. Run-to-run spread then measures the program, not how hard
// one corpus is compared with another (F1 over the 15 queries of a
// Syn-1 subset moves from 0.25 to 0.59 between generation seeds).
const priorsSeed = 1

// genProfile generates a Table III stand-in at the given scale.
func genProfile(profile string, scale float64) (*corpus, error) {
	cfg, err := dataset.Profile(profile, scale)
	if err != nil {
		return nil, err
	}
	return genCorpus(cfg)
}

// genSyn generates a Syn-1 subset of graphs graphs with size vertices.
func genSyn(size, graphs int) (*corpus, error) {
	base, err := dataset.Profile("syn1", 1)
	if err != nil {
		return nil, err
	}
	cfg, err := dataset.SynSubset("syn1", size, graphs, base.Seed)
	if err != nil {
		return nil, err
	}
	return genCorpus(cfg)
}

func genCorpus(cfg dataset.Config) (*corpus, error) {
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{ds: ds, queries: ds.Queries}
	gs := make([]*graph.Graph, len(ds.DBGraphs))
	for i, ci := range ds.DBGraphs {
		gs[i] = ds.Col.Graph(ci)
	}
	var buf bytes.Buffer
	if err := graph.WriteAll(&buf, gs, ds.Col.Dict); err != nil {
		return nil, err
	}
	c.text = buf.Bytes()
	return c, nil
}

// load bulk-loads the searched graphs into d with LoadText and returns the
// live map (graph ID → collection index). A fresh database assigns dense
// IDs in load order; the answer checks catch any other assignment, since
// every match's name must agree with the map.
func (c *corpus) load(d *gsim.Database) (map[int]int, error) {
	n, err := d.LoadText(bytes.NewReader(c.text))
	if err != nil {
		return nil, fmt.Errorf("loading corpus: %w", err)
	}
	if n != len(c.ds.DBGraphs) {
		return nil, fmt.Errorf("loading corpus: loaded %d graphs, want %d", n, len(c.ds.DBGraphs))
	}
	live := make(map[int]int, n)
	for id, ci := range c.ds.DBGraphs {
		live[id] = ci
	}
	return live, nil
}

// fill adds collection graph ci's vertices and edges to b.
func (c *corpus) fill(b *gsim.GraphBuilder, ci int) *gsim.GraphBuilder {
	g := c.ds.Col.Graph(ci)
	dict := c.ds.Col.Dict
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(dict.Name(g.VertexLabel(v)))
	}
	for _, e := range g.Edges() {
		if err := b.AddEdge(int(e.U), int(e.V), dict.Name(e.Label)); err != nil {
			panic(fmt.Sprintf("generated graph %d has an invalid edge: %v", ci, err))
		}
	}
	return b
}

// query prepares collection graph ci as a query of d.
func (c *corpus) query(d *gsim.Database, ci int) *gsim.Query {
	return c.fill(d.NewQuery(c.ds.Col.Graph(ci).Name), ci).Query()
}

// builder prepares collection graph ci for Store or Update in d.
func (c *corpus) builder(d *gsim.Database, ci int) *gsim.GraphBuilder {
	return c.fill(d.NewGraph(c.ds.Col.Graph(ci).Name), ci)
}

// wire renders collection graph ci in the HTTP API's graph form.
func (c *corpus) wire(ci int) map[string]any {
	g := c.ds.Col.Graph(ci)
	dict := c.ds.Col.Dict
	vs := make([]string, g.NumVertices())
	for v := range vs {
		vs[v] = dict.Name(g.VertexLabel(v))
	}
	es := []map[string]any{}
	for _, e := range g.Edges() {
		es = append(es, map[string]any{"u": e.U, "v": e.V, "label": dict.Name(e.Label)})
	}
	return map[string]any{"name": g.Name, "vertices": vs, "edges": es}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// within is the certified truth predicate GED(q, ci) ≤ tau.
func (c *corpus) within(q, ci, tau int) bool {
	return q != ci && c.ds.WithinTau(q, ci, tau)
}

// score adds one answer of query q at tau over the live store (graph ID →
// collection index) to the micro-averaged counts of paper §VII-C,
// checking that every match names the graph the map holds under its ID.
func (c *corpus) score(cnt *metrics.Counts, r *report, live map[int]int, q, tau int, ms []gsim.Match) {
	var returned, truth []int
	for _, m := range ms {
		ci, ok := live[m.Index]
		if !ok || c.ds.Col.Graph(ci).Name != m.Name {
			r.violate("query %d: match id %d (%q) is not a live graph of that name", q, m.Index, m.Name)
			continue
		}
		returned = append(returned, ci)
	}
	for _, ci := range live {
		if c.within(q, ci, tau) {
			truth = append(truth, ci)
		}
	}
	cnt.Add(metrics.Evaluate(returned, truth))
}

// f1All answers every query of the corpus at tau with one prefiltered
// SearchBatch and scores the answers against the certified truth of the
// live store. Scoring the whole query set, not the seeded draw, keeps F1
// a property of the program rather than of the draw.
func (c *corpus) f1All(cnt *metrics.Counts, rep *report, d *gsim.Database, live map[int]int, tau int) {
	qs := make([]*gsim.Query, len(c.queries))
	for i, ci := range c.queries {
		qs[i] = c.query(d, ci)
	}
	res, err := d.SearchBatch(context.Background(), qs, gsim.SearchOptions{Method: gsim.GBDA, Tau: tau, Gamma: gamma, Prefilter: true})
	if err != nil {
		rep.violate("scoring batch at tau %d: %v", tau, err)
		return
	}
	for i, ci := range c.queries {
		c.score(cnt, rep, live, ci, tau, res[i].Matches)
	}
}

// sameMatches reports whether two answers hold the same matches with the
// same scores, ignoring order.
func sameMatches(a, b []gsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := sortedMatches(a), sortedMatches(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func sortedMatches(ms []gsim.Match) []gsim.Match {
	s := append([]gsim.Match(nil), ms...)
	sort.Slice(s, func(i, j int) bool { return s[i].Index < s[j].Index })
	return s
}

// rankTopK is the benchmark's own ranking of a CollectAll scan: the k
// highest GBDA posteriors, equal scores by ascending graph ID.
func rankTopK(all []gsim.Match, k int) []gsim.Match {
	s := append([]gsim.Match(nil), all...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].Index < s[j].Index
	})
	if len(s) > k {
		s = s[:k]
	}
	return s
}

// sameRanking reports whether two ranked answers agree position by
// position.
func sameRanking(a, b []gsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAdmissible verifies the prefilter on one query: the prefiltered
// answer is a subset of the unfiltered one with equal scores, and every
// graph the prefilter dropped has certified GED > tau.
func (c *corpus) checkAdmissible(r *report, live map[int]int, q, tau int, filtered, unfiltered []gsim.Match) {
	all := map[int]gsim.Match{}
	for _, m := range unfiltered {
		all[m.Index] = m
	}
	kept := map[int]bool{}
	for _, m := range filtered {
		if u, ok := all[m.Index]; !ok || u != m {
			r.violate("query %d tau %d: prefiltered match %d (score %v) is not in the unfiltered answer", q, tau, m.Index, m.Score)
		}
		kept[m.Index] = true
	}
	for id := range all {
		if kept[id] {
			continue
		}
		if c.within(q, live[id], tau) {
			r.violate("query %d tau %d: prefilter dropped graph %d whose certified GED is ≤ tau", q, tau, id)
		}
	}
}
