package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metric describes one reported figure. BENCHMARK.json at the
// repository root lists the same names, units and directions
// (TestBenchmarkJSONMatches keeps the two in step).
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	sim    bool    // simulated-clock figure: deterministic per seed, part of the digest
}

// endToEnd is printed by every workload with --trace 0. Every value is
// non-zero on every workload.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "sim_ops_per_s", unit: "ops/sim_s", better: "higher", bound: 0.15, sim: true},
	{name: "sim_read_ns_p50", unit: "sim_ns", better: "lower", bound: 0.1, sim: true},
	{name: "sim_read_ns_p99", unit: "sim_ns", better: "lower", bound: 0.2, sim: true},
	{name: "sim_write_ns_p50", unit: "sim_ns", better: "lower", bound: 0.1, sim: true},
	{name: "sim_write_ns_p99", unit: "sim_ns", better: "lower", bound: 0.2, sim: true},
	{name: "cleaning_cost", unit: "copies/flush", better: "lower", bound: 0.25, sim: true},
	{name: "write_amp", unit: "B/B", better: "lower", bound: 0.15, sim: true},
}

// cpuModules are the envy packages whose CPU share the traced run
// reports; "other" collects the remaining envy packages, "bench" the
// benchmark's own code, and "gc" samples with neither.
var cpuModules = []string{
	"tpca", "btree", "host", "envy", "core", "sram", "sched", "cleaner",
	"flash", "pagetable", "stats", "sim", "workload", "recovery",
	"other", "bench", "gc",
}

// perLayer is printed by every workload with --trace 1; a layer a
// workload does not exercise reads 0.
var perLayer = func() []metric {
	var ms []metric
	for _, m := range cpuModules {
		ms = append(ms, metric{name: "cpu." + m, unit: "share", better: "lower"})
	}
	ms = append(ms, metric{name: "cpu.background", unit: "share", better: "lower"})
	for _, s := range spanNames {
		ms = append(ms, metric{name: "span." + s + "_s", unit: "s", better: "lower"})
	}
	ms = append(ms,
		metric{name: "wall.setup_s", unit: "s", better: "lower"},
		metric{name: "wall.ops_per_s", unit: "1/s", better: "higher"},
		metric{name: "recover_ms", unit: "ms", better: "lower"},
		metric{name: "wall.recover_ms", unit: "ms", better: "lower"},
		metric{name: "ref.ns_per_load", unit: "ns", better: "lower"},
		metric{name: "op_ns_p50", unit: "ns", better: "lower"},
		metric{name: "op_ns_p99", unit: "ns", better: "lower"},
		metric{name: "trace_overhead", unit: "ratio", better: "lower"},
		metric{name: "gc.allocs_per_op", unit: "allocs/op", better: "lower"},
		metric{name: "gc.alloc_bytes_per_op", unit: "B/op", better: "lower"},
	)
	simLayer := []metric{
		{name: "core.frac_reading", unit: "share", better: "lower"},
		{name: "core.frac_writing", unit: "share", better: "lower"},
		{name: "core.frac_flushing", unit: "share", better: "lower"},
		{name: "core.frac_cleaning", unit: "share", better: "lower"},
		{name: "core.frac_erasing", unit: "share", better: "lower"},
		{name: "core.frac_idle", unit: "share", better: "higher"},
		{name: "pagetable.mmu_hit_rate", unit: "share", better: "higher"},
		{name: "sram.buffer_hit_frac", unit: "share", better: "higher"},
		{name: "sram.cow_per_write", unit: "cow/write", better: "lower"},
		{name: "sched.suspensions_per_op", unit: "susp/op", better: "lower"},
		{name: "sched.flush_suspended_frac", unit: "share", better: "lower"},
		{name: "sched.flush_clean_overlap_frac", unit: "share", better: "higher"},
		{name: "cleaner.copies_per_clean", unit: "copies/clean", better: "lower"},
		{name: "cleaner.wear_spread", unit: "erases", better: "lower"},
		{name: "cleaner.wear_swaps", unit: "count", better: "lower"},
		{name: "host.sojourn_ns_p99", unit: "sim_ns", better: "lower"},
		{name: "host.mean_depth", unit: "requests", better: "lower"},
		{name: "tpca.reads_per_txn", unit: "reads/txn", better: "lower"},
		{name: "tpca.writes_per_txn", unit: "writes/txn", better: "lower"},
		{name: "recovery.flushes_discarded", unit: "count", better: "lower"},
		{name: "recovery.torn_quarantined", unit: "count", better: "lower"},
		{name: "recovery.orphans", unit: "count", better: "lower"},
	}
	for _, m := range simLayer {
		m.sim = true
		ms = append(ms, m)
	}
	return ms
}()

// nsHist holds wall-clock samples in nanoseconds: exact 1 ns buckets
// below fineNs, the rare larger samples kept verbatim. Recording never
// allocates unless a sample exceeds fineNs.
type nsHist struct {
	fine [fineNs]uint32
	over []int64
	n    int
}

const fineNs = 1 << 16

func (h *nsHist) add(ns int64) {
	h.n++
	if ns < 0 {
		ns = 0
	}
	if ns < fineNs {
		h.fine[ns]++
		return
	}
	h.over = append(h.over, ns)
}

// quantile returns the nearest-rank p-th percentile (p in (0, 100]).
func (h *nsHist) quantile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	k := rankOf(p, h.n)
	seen := 0
	for v, c := range h.fine {
		seen += int(c)
		if seen > k {
			return float64(v)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return float64(h.over[k-seen])
}

// rankOf is the 0-based nearest-rank index of the p-th percentile of n
// samples. The epsilon keeps float error in p/100*n (99.9/100*10000 is
// 9990.000000000002) from moving the rank up by one.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tailPercentile is the highest of the usual reporting percentiles
// that still has at least ten samples beyond it among n samples (50
// when none does).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if n-rankOf(p, n)-1 >= 10 {
			return p
		}
	}
	return 50
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest hashes every simulated metric, by name and exact value, into
// a short hex string: equal digests mean equal simulated outcomes.
func digest(vals map[string]float64) string {
	var b strings.Builder
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.sim {
				fmt.Fprintf(&b, "%s=%s\n", m.name, strconv.FormatFloat(vals[m.name], 'g', -1, 64))
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}
