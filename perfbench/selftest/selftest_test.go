// Package selftest checks the benchmark itself: a tiny run of every
// workload prints every metric BENCHMARK.json declares, with its unit, and
// a wrong oracle turns into failed ops. Run it from perfbench/ with
// `go test ./...`.
package selftest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fishstore/perfbench/bench"
)

type spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tiny(workload string, traced bool) bench.Config {
	return bench.Config{
		Workload: workload,
		Seed:     7,
		Window:   1500 * time.Millisecond,
		Trace:    traced,
		Sizes:    bench.Tiny(),
	}
}

func TestTinyRunsPrintDeclaredMetrics(t *testing.T) {
	b := declared(t)
	if len(b.Workloads) != len(bench.Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Workloads), len(bench.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != bench.Workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, bench.Workloads[i])
		}
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			cfg := tiny(w.Name, traced)
			cfg.TraceOut = filepath.Join(t.TempDir(), "trace.json")
			res, err := bench.Run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				if fi, err := os.Stat(cfg.TraceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no Chrome trace written: %v", w.Name, err)
				}
			}
		}
	}
}

func TestWrongOracleFailsOps(t *testing.T) {
	for _, w := range bench.Workloads {
		cfg := tiny(w, false)
		cfg.OracleSkew = 1
		res, err := bench.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: an oracle off by one passed: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}
