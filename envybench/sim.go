package main

import (
	"envy/internal/core"
	"envy/internal/sim"
	"envy/internal/stats"
)

// wordBytes is the size of one host access: the device splits every
// Read and Write into 32-bit word accesses, and its counters and
// latency histograms count those.
const wordBytes = 4

// simTotals accumulates a device's simulated counters over a measured
// phase that spans many stats-reset intervals (every tpca Driver.Run
// resets them; the ycsb loop resets them after each recovery).
type simTotals struct {
	ops     int64        // measured operations: transactions or host accesses
	elapsed sim.Duration // simulated time of the measured intervals

	counters  stats.Counters
	breakdown stats.Breakdown
	opStats   stats.OpStats
	readLat   stats.Latency
	writeLat  stats.Latency

	programBytes int64
	segStart     sim.Time // simulated start of the open interval
	segProgram   int64    // ProgramBytes at the start of the open interval

	// Host queue figures (tpca): per-interval sojourn p99s and the
	// time-weighted queue depth.
	sojournP99  []float64
	depthTime   float64
	wearSpread  int64
	discarded   int
	quarantined int
	orphans     int
}

// begin opens a measured interval on d, whose stats were just reset.
func (t *simTotals) begin(d *core.Device) {
	t.segStart = d.Now()
	t.segProgram = d.Array().ProgramBytes()
}

// absorb closes the open interval, folding everything d counted since
// its last stats reset into t.
func (t *simTotals) absorb(d *core.Device) {
	t.elapsed += d.Now().Sub(t.segStart)
	t.programBytes += d.Array().ProgramBytes() - t.segProgram
	t.counters.Add(d.Counters())
	b := d.Breakdown()
	for a := stats.Idle; a <= stats.Erasing; a++ {
		t.breakdown.Add(a, b.Get(a))
	}
	t.opStats.Add(d.OpStats())
	t.readLat.Merge(d.ReadLatency())
	t.writeLat.Merge(d.WriteLatency())
	lo, hi := d.Array().WearSpread()
	t.wearSpread = hi - lo
}

// values adds every simulated metric to v.
func (t *simTotals) values(v map[string]float64) {
	c := &t.counters
	v["sim_ops_per_s"] = ratio(float64(t.ops), t.elapsed.Seconds())
	v["sim_read_ns_p50"] = float64(t.readLat.Percentile(50))
	v["sim_read_ns_p99"] = float64(t.readLat.Percentile(99))
	v["sim_write_ns_p50"] = float64(t.writeLat.Percentile(50))
	v["sim_write_ns_p99"] = float64(t.writeLat.Percentile(99))
	v["cleaning_cost"] = c.CleaningCost()
	v["write_amp"] = ratio(float64(t.programBytes), float64(c.HostWrites*wordBytes))

	for _, a := range []stats.Activity{stats.Reading, stats.Writing, stats.Flushing, stats.Cleaning, stats.Erasing, stats.Idle} {
		v["core.frac_"+a.String()] = t.breakdown.Fraction(a)
	}
	v["pagetable.mmu_hit_rate"] = ratio(float64(c.MMUHits), float64(c.MMUHits+c.MMUMisses))
	v["sram.buffer_hit_frac"] = ratio(float64(c.BufferHits), float64(c.HostWrites))
	v["sram.cow_per_write"] = ratio(float64(c.CopyOnWrites), float64(c.HostWrites))

	var susp int64
	for k := stats.OpKind(0); k < stats.NumOpKinds; k++ {
		susp += t.opStats.Get(k).Suspensions
	}
	fl := t.opStats.Get(stats.OpFlush)
	v["sched.suspensions_per_op"] = ratio(float64(susp), float64(t.ops))
	v["sched.flush_suspended_frac"] = ratio(float64(fl.Suspended), float64(fl.Active+fl.Suspended))
	v["sched.flush_clean_overlap_frac"] = ratio(float64(t.opStats.FlushCleanOverlap()), float64(t.elapsed))

	v["cleaner.copies_per_clean"] = ratio(float64(c.CleanCopies), float64(c.SegmentCleans))
	v["cleaner.wear_spread"] = float64(t.wearSpread)
	v["cleaner.wear_swaps"] = float64(c.WearSwaps)

	v["host.sojourn_ns_p99"] = 0
	if len(t.sojournP99) > 0 {
		v["host.sojourn_ns_p99"] = median(t.sojournP99)
	}
	v["host.mean_depth"] = ratio(t.depthTime, float64(t.elapsed))

	v["recovery.flushes_discarded"] = float64(t.discarded)
	v["recovery.torn_quarantined"] = float64(t.quarantined)
	v["recovery.orphans"] = float64(t.orphans)
}
