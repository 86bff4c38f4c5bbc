package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json lists for one mode.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload on tiny inputs, untraced and traced: all
// output checks pass, no operation fails, and the result line carries
// exactly the metrics BENCHMARK.json declares for the mode, every
// end-to-end one non-zero.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			want := endToEnd
			if trace {
				name, want = w+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{workload: w, seed: 3, seconds: 0.05, trace: trace, tiny: true,
					spans: filepath.Join(dir, "spans.jsonl"), scratch: filepath.Join(dir, "tmp")}
				rep, err := workloads[w](cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range rep.violations {
					t.Error("check failed:", v)
				}
				var out bytes.Buffer
				rep.print(&out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s missing", n)
					case m.Unit != unit:
						t.Errorf("metric %s in %s, declared %s", n, m.Unit, unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v", n, m.Value)
					}
				}
				if trace {
					if st, err := os.Stat(cfg.spans); err != nil || st.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
			})
		}
	}
}
