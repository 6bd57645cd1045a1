// Benchmarks regenerating every table and figure of the eNVy paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// reduced "bench" scale and reports the headline quantity as a custom
// metric (cleaning_cost, tps, read_ns, ...), so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation in one pass. cmd/experiments prints
// the same experiments as full tables, and EXPERIMENTS.md records the
// paper-vs-measured comparison.
package envy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"envy"
	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/experiments"
	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/tpca"
)

// reportAll emits one experiment's metric map — the same maps
// cmd/experiments -json writes to BENCH_results.json — as custom
// benchmark metrics, in sorted order for stable output.
func reportAll(b *testing.B, metrics map[string]float64) {
	b.Helper()
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(metrics[k], k)
	}
}

// TestBenchEncoder round-trips the BENCH_results.json encoder the
// benchmarks and cmd/experiments share.
func TestBenchEncoder(t *testing.T) {
	records := []experiments.BenchRecord{
		{
			Name:  "parallel",
			Scale: "bench",
			Seed:  1,
			Metrics: experiments.ParallelMetrics([]experiments.ParallelPoint{
				{ParallelFlush: 4, MeanFlushTime: 1025, TPS: 9000, WriteMean: 310},
			}),
			WallSeconds: 0.5,
		},
	}
	var buf bytes.Buffer
	if err := experiments.WriteBenchJSON(&buf, records); err != nil {
		t.Fatal(err)
	}
	var back []experiments.BenchRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decoding written JSON: %v", err)
	}
	if len(back) != 1 || back[0].Name != "parallel" || back[0].Metrics["banks4_flush_ns"] != 1025 {
		t.Fatalf("round trip mangled records: %+v", back)
	}
}

// benchScale trims the small profile so individual benchmark
// iterations stay around a second of wall time.
func benchScale() experiments.Scale {
	sc := experiments.Small()
	sc.Warm, sc.Measure = 20, 10
	sc.Rates = []float64{2000, 8000, 1e5}
	sc.SimTime = 150 * sim.Millisecond
	sc.WarmTime = 100 * sim.Millisecond
	return sc
}

// BenchmarkFig6 measures cleaning cost against the u/(1-u) curve at
// two utilizations (Figure 6).
func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	for _, u := range []float64{0.5, 0.8} {
		b.Run(fmt.Sprintf("util=%.1f", u), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				h, err := cleaner.NewHarness(sc.PolicyGeometry, cleaner.Config{
					Kind:              cleaner.Hybrid,
					PartitionSegments: 1,
					LogicalPages:      int(u * float64(sc.PolicyGeometry.Pages())),
				})
				if err != nil {
					b.Fatal(err)
				}
				h.Load()
				n := h.LogicalPages()
				cost = h.Run(sim.NewRNG(1), sim.Uniform, sc.Warm*n, sc.Measure*n)
			}
			b.ReportMetric(cost, "cleaning_cost")
			b.ReportMetric(u/(1-u), "analytic_cost")
		})
	}
}

// BenchmarkFig8 measures the three cleaning policies at the ends of
// the locality axis (Figure 8).
func BenchmarkFig8(b *testing.B) {
	sc := benchScale()
	policies := []struct {
		name string
		cfg  cleaner.Config
	}{
		{"greedy", cleaner.Config{Kind: cleaner.Greedy}},
		{"locgather", cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 1}},
		{"hybrid16", cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 16}},
		{"fifo", cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: sc.PolicyGeometry.Segments - 1}},
	}
	for _, pol := range policies {
		for _, loc := range []string{"50/50", "10/90"} {
			b.Run(pol.name+"/"+loc, func(b *testing.B) {
				dist, err := sim.ParseLocality(loc)
				if err != nil {
					b.Fatal(err)
				}
				var cost float64
				for i := 0; i < b.N; i++ {
					h, err := cleaner.NewHarness(sc.PolicyGeometry, pol.cfg)
					if err != nil {
						b.Fatal(err)
					}
					h.Load()
					n := h.LogicalPages()
					cost = h.Run(sim.NewRNG(1), dist, sc.Warm*n, sc.Measure*n)
				}
				b.ReportMetric(cost, "cleaning_cost")
			})
		}
	}
}

// BenchmarkFig9 sweeps the hybrid partition size (Figure 9).
func BenchmarkFig9(b *testing.B) {
	sc := benchScale()
	dist, _ := sim.ParseLocality("10/90")
	for _, k := range []int{1, 4, 16, 64, sc.PolicyGeometry.Segments - 1} {
		b.Run(fmt.Sprintf("partition=%d", k), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				h, err := cleaner.NewHarness(sc.PolicyGeometry, cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: k})
				if err != nil {
					b.Fatal(err)
				}
				h.Load()
				n := h.LogicalPages()
				cost = h.Run(sim.NewRNG(1), dist, sc.Warm*n, sc.Measure*n)
			}
			b.ReportMetric(cost, "cleaning_cost")
		})
	}
}

// BenchmarkFig10 sweeps the number of segments at fixed array size
// (Figure 10).
func BenchmarkFig10(b *testing.B) {
	sc := benchScale()
	dist, _ := sim.ParseLocality("10/90")
	totalPages := sc.PolicyGeometry.Pages()
	for _, segs := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			geo := sc.PolicyGeometry
			geo.PagesPerSegment = totalPages / segs
			geo.Segments = segs + 1
			var cost float64
			for i := 0; i < b.N; i++ {
				h, err := cleaner.NewHarness(geo, cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: (segs + 7) / 8})
				if err != nil {
					b.Fatal(err)
				}
				h.Load()
				n := h.LogicalPages()
				cost = h.Run(sim.NewRNG(1), dist, sc.Warm*n, sc.Measure*n)
			}
			b.ReportMetric(cost, "cleaning_cost")
		})
	}
}

// benchRate runs one TPC-A point and reports throughput and latency
// metrics.
func benchRate(b *testing.B, sc experiments.Scale, rate float64) {
	b.Helper()
	var pts []experiments.RatePoint
	for i := 0; i < b.N; i++ {
		one := sc
		one.Rates = []float64{rate}
		var err error
		pts, err = experiments.RateSweep(one)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.RateMetrics(pts))
}

// BenchmarkFig13 drives TPC-A below and beyond saturation (Figure 13:
// throughput; the same points carry Figure 15's latencies).
func BenchmarkFig13(b *testing.B) {
	sc := benchScale()
	for _, rate := range sc.Rates {
		b.Run(fmt.Sprintf("offered=%.0f", rate), func(b *testing.B) {
			benchRate(b, sc, rate)
		})
	}
}

// BenchmarkFig15 reports the flat-latency region and the saturated
// region explicitly (Figure 15).
func BenchmarkFig15(b *testing.B) {
	sc := benchScale()
	b.Run("below-saturation", func(b *testing.B) { benchRate(b, sc, sc.Rates[0]) })
	b.Run("beyond-saturation", func(b *testing.B) { benchRate(b, sc, sc.Rates[len(sc.Rates)-1]) })
}

// BenchmarkFig14 varies Flash utilization at a fixed database size
// (Figure 14).
func BenchmarkFig14(b *testing.B) {
	sc := benchScale()
	sc.Rates = []float64{8000}
	var pts []experiments.UtilPoint
	var labels []string
	for i := 0; i < b.N; i++ {
		var err error
		pts, labels, err = experiments.Fig14(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.TPS[labels[len(labels)-1]], fmt.Sprintf("tps_at_u%.2f", p.Utilization))
	}
}

// BenchmarkBreakdown measures the §5.3 controller-time split at
// saturation.
func BenchmarkBreakdown(b *testing.B) {
	sc := benchScale()
	var r experiments.BreakdownResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Breakdown(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.BreakdownMetrics(r))
}

// BenchmarkLifetime measures the §5.5 estimate from a live run.
func BenchmarkLifetime(b *testing.B) {
	sc := benchScale()
	var r experiments.LifetimeResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Lifetime(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.LifetimeMetrics(r))
}

// BenchmarkParallelFlush measures the §6 concurrent-bank extension.
func BenchmarkParallelFlush(b *testing.B) {
	sc := benchScale()
	for _, par := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("banks=%d", par), func(b *testing.B) {
			one := sc
			var pts []experiments.ParallelPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = experiments.ParallelOne(one, par)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportAll(b, experiments.ParallelMetrics(pts))
		})
	}
}

// BenchmarkAblationRedistribution measures the locality-gathering
// redistribution ablation.
func BenchmarkAblationRedistribution(b *testing.B) {
	sc := benchScale()
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PolicyAblations(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.AblationMetrics(rows))
}

// BenchmarkMapTier measures the two-tier page table's capacity
// experiment at a reduced profile: hit rate, tiered-vs-flat read
// latency, extra write amplification, and the SRAM ratio. The
// full-scale (≥1M logical page) sweep runs through cmd/experiments.
func BenchmarkMapTier(b *testing.B) {
	p := experiments.MapTierProfile{
		Geometry:     flash.Geometry{PageSize: 256, PagesPerSegment: 1024, Segments: 80, Banks: 8},
		LogicalPages: 65536,
		WorkingPages: 16384,
		CacheFrames:  96,
		SegmentPages: 128,
		BufferPages:  512,
		Writes:       20_000,
		Reads:        8_000,
		MMUEntries:   -1,
		Seed:         1,
	}
	var res experiments.MapTierResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.MapTierRun(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAll(b, experiments.MapTierMetrics(res))
}

// BenchmarkDeviceAccess measures the raw Go-level speed of simulated
// host accesses (not a paper figure; engineering health).
func BenchmarkDeviceAccess(b *testing.B) {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	pages := uint64(dev.Size()) / 256
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev.WriteWord(uint64(i)%pages*256, uint32(i))
			if i%256 == 0 {
				dev.Idle(1e6)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev.ReadWord(uint64(i) % pages * 256)
		}
	})
}

// BenchmarkTransactions measures §6 transaction overhead per
// committed page.
func BenchmarkTransactions(b *testing.B) {
	dev, err := envy.New(envy.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := dev.Begin(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			dev.WriteWord(uint64(j)*256, uint32(i))
		}
		if i%2 == 0 {
			dev.Commit()
		} else {
			dev.Rollback()
		}
		if i%128 == 0 {
			dev.Idle(1e6)
		}
	}
}

// BenchmarkTPCATransaction measures the simulator in its end-to-end
// unit: wall ns and heap allocations per simulated TPC-A transaction.
// Transactions run through a depth-1 host queue (the experiments'
// driver) on the aged and warmed small-scale system. b.N sets the
// simulated duration so that about b.N transactions arrive; ns/txn and
// allocs/txn divide by the exact number completed.
func BenchmarkTPCATransaction(b *testing.B) {
	const rate = 8000 // TPS, below the small system's saturation
	sc := experiments.Small()
	dev, err := core.New(core.Config{
		Geometry:    sc.SystemGeometry,
		Cleaning:    cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 16, WearThreshold: 100},
		BufferPages: sc.BufferPages,
	})
	if err != nil {
		b.Fatal(err)
	}
	bank, err := tpca.Setup(dev, tpca.Config{
		Branches: sc.Branches, AccountsPerTeller: sc.AccountsPerTeller, Seed: sc.Seed, InitialBalance: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	dev.Churn(sc.AgeWrites, sc.Seed^0xa6e)
	dr := tpca.NewDriverDepth(bank, 1)
	for i := 0; i < 2; i++ {
		if _, err := dr.Run(rate, sc.WarmTime); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := dr.Run(rate, sim.Duration(float64(b.N)/rate*float64(sim.Second)))
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Completed > 0 {
		n := float64(res.Completed)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/txn")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/txn")
	}
}
