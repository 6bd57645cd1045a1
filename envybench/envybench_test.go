package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 50},
		{1, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 50 {
			if beyond := tc.n - rankOf(p, tc.n) - 1; beyond < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond it, want at least 10", tc.n, p, beyond)
			}
		}
	}
}

func TestNsHistQuantiles(t *testing.T) {
	var h nsHist
	for v := int64(1000); v >= 1; v-- { // out of order on purpose
		h.add(v)
	}
	if got := h.quantile(50); got != 500 {
		t.Errorf("median of 1..1000 = %g, want 500", got)
	}
	if got := h.quantile(99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := h.quantile(100); got != 1000 {
		t.Errorf("p100 of 1..1000 = %g, want 1000", got)
	}

	// Samples past the fine range are kept exactly.
	var big nsHist
	for i := 0; i < 90; i++ {
		big.add(100)
	}
	for i := int64(1); i <= 10; i++ {
		big.add(fineNs * i)
	}
	if got := big.quantile(50); got != 100 {
		t.Errorf("median = %g, want 100", got)
	}
	if got := big.quantile(95); got != 5*fineNs {
		t.Errorf("p95 = %g, want %d", got, 5*fineNs)
	}
	if got := big.quantile(100); got != 10*fineNs {
		t.Errorf("max = %g, want %d", got, 10*fineNs)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestLayerOfChargesInnermostEnvyFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memmove", "envy/internal/flash.(*Array).copyPad", "envy/internal/core.(*Device).flushOne", "main.(*tpcaRun).measure"}, "flash"},
		{[]string{"sync.(*RWMutex).RLock", "envy/internal/pagetable.(*Table).Lookup", "envy/internal/core.(*Device).read"}, "pagetable"},
		{[]string{"envy/internal/sram.(*Buffer).Frames", "envy/internal/core.(*Device).pickFlushFrame.func1"}, "sram"},
		{[]string{"runtime.mallocgc", "envy.(*Device).ReadErr", "main.(*ycsbRun).step"}, "envy"},
		{[]string{"envy/internal/invariant.CheckDevice", "envy/internal/recovery.Recover"}, "other"},
		{[]string{"time.Now", "main.(*tracer).begin", "main.(*ycsbRun).step"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "gc"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

const tracesText = `File: envybench
Type: cpu
Duration: 1s, Total samples = 140ms (14.00%)
-----------+-------------------------------------------------------
     phase:  measure
      30ms   runtime.memmove
             envy/internal/flash.(*Array).Program
             envy/internal/core.(*Device).flush (inline)
             main.main
-----------+-------------------------------------------------------
      50ms   sync.(*RWMutex).RLock (inline)
             envy/internal/pagetable.(*Table).Lookup
             main.main
-----------+-------------------------------------------------------
      40ms   envy/internal/sram.(*Buffer).Frames
             envy/internal/core.(*Device).pickFlushFrame
             envy/internal/sched.(*Scheduler).Run
             envy/internal/core.(*Device).AdvanceTo
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
`

func TestSharesFromTraces(t *testing.T) {
	shares, err := sharesFromTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"flash": 0.3 / 1.4, "pagetable": 0.5 / 1.4, "sram": 0.4 / 1.4, "gc": 0.2 / 1.4}
	var sum float64
	for _, m := range cpuModules {
		sum += shares[m]
		if math.Abs(shares[m]-want[m]) > 1e-12 {
			t.Errorf("cpu.%s = %g, want %g", m, shares[m], want[m])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if got := shares["background"]; math.Abs(got-0.4/1.4) > 1e-12 {
		t.Errorf("cpu.background = %g, want %g", got, 0.4/1.4)
	}
	if _, err := sharesFromTraces("File: x\n"); err == nil {
		t.Error("a profile with no samples should be an error")
	}
}

func TestDigestCoversSimulatedMetricsOnly(t *testing.T) {
	v := map[string]float64{"write_amp": 2, "ops_per_s": 1000, "cpu.core": 0.5}
	d := digest(v)
	v["ops_per_s"], v["cpu.core"] = 2000, 0.1
	if digest(v) != d {
		t.Error("a wall-clock metric changed the digest")
	}
	v["write_amp"] = 2.0000001
	if digest(v) == d {
		t.Error("a simulated metric did not change the digest")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.begin(spanWarm)
	tr.begin(spanRun)
	tr.end()
	tr.end()
	if tr.self[spanWarm] < 0 || tr.self[spanRun] <= 0 || len(tr.stack) != 0 {
		t.Errorf("self times warm=%v run=%v, open spans %d", tr.self[spanWarm], tr.self[spanRun], len(tr.stack))
	}
	var none *tracer
	none.begin(spanRun) // a nil tracer records nothing
	none.end()
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	defs := workloads()
	if len(b.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(defs))
	}
	for i, w := range b.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
	check := func(kind string, got []metricJSON, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the program %s %s %s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s: bound of %s differs from the program's %g", kind, m.name, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: %s has a bound", kind, m.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "envybench" || !strings.HasSuffix(strings.Join(b.Command, " "), "envybench/run.sh") {
		t.Errorf("command %v / paths %v do not point at this directory", b.Command, b.Paths)
	}
}
