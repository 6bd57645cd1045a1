package main

import (
	"fmt"
	"time"

	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/experiments"
	"envy/internal/flash"
	"envy/internal/recovery"
	"envy/internal/sim"
	"envy/internal/tpca"
)

// tpcaSpec sizes one TPC-A workload. The driver is the one
// cmd/experiments uses: tpca.NewDriverDepth(bank, 1) and Driver.Run,
// on a device aged with Churn.
type tpcaSpec struct {
	geometry          flash.Geometry
	bufferPages       int
	branches          int
	accountsPerTeller int
	ageWrites         int
	parallelFlush     int
	rate              float64 // offered transactions per simulated second
	recoveries        int     // crash/recover cycles after the measured phase

	// roundsPerSecond is how many measured rounds one --seconds buys:
	// sized so a round-trip of the measured phase takes about that long
	// on a 2-CPU x86-64 box with go1.24. The count is fixed by
	// --seconds, never by the wall clock, so simulated results depend on
	// the seed alone.
	roundsPerSecond int
}

const (
	// tpcaRound is the offered-arrival window of one measured round:
	// each Driver.Run serves the transactions that arrive within it.
	tpcaRound = sim.Millisecond
	// tpcaWarm is the window of each of the two warm-up runs, enough to
	// fill the write buffer and engage flushing.
	tpcaWarm        = 50 * sim.Millisecond
	initialBalance  = 1000
	tpcaMinRounds   = 1000 // enough rounds for a p99 with ten beyond it
	tpcaChurnSalt   = 0xa6e
	tpcaHybridParts = 16
)

// tpcaSmallSat is the §6 configuration offered far past saturation.
func tpcaSmallSat() tpcaSpec {
	sc := experiments.Small()
	return tpcaSpec{
		geometry:          sc.SystemGeometry,
		bufferPages:       sc.BufferPages,
		branches:          sc.Branches,
		accountsPerTeller: sc.AccountsPerTeller,
		ageWrites:         sc.AgeWrites,
		parallelFlush:     8,
		rate:              64_000,
		recoveries:        48,
		roundsPerSecond:   440,
	}
}

// tpcaLarge is the Figure 12 shape at 1/16 capacity: 128 MB of Flash
// and a 512K-entry page table, far beyond the MMU's reach.
func tpcaLarge() tpcaSpec {
	return tpcaSpec{
		geometry:          flash.Geometry{PageSize: 256, PagesPerSegment: 4096, Segments: 128, Banks: 8},
		bufferPages:       4096,
		branches:          70,
		accountsPerTeller: 1000,
		ageWrites:         160_000,
		parallelFlush:     1,
		rate:              200_000,
		recoveries:        15,
		roundsPerSecond:   280,
	}
}

func (s tpcaSpec) sizes() map[string]any {
	g := s.geometry
	return map[string]any{
		"segments": g.Segments, "pages_per_segment": g.PagesPerSegment, "page_bytes": g.PageSize,
		"banks": g.Banks, "buffer_pages": s.bufferPages, "parallel_flush": s.parallelFlush,
		"accounts": s.branches * tpca.TellersPerBranch * s.accountsPerTeller,
		"tellers":  s.branches * tpca.TellersPerBranch, "branches": s.branches,
		"age_writes": s.ageWrites, "offered_tps": s.rate, "recover_cycles": s.recoveries,
		"round_sim_ms": tpcaRound.Seconds() * 1e3, "rounds_per_second": s.roundsPerSecond,
	}
}

// tpcaRun is one set-up TPC-A database.
type tpcaRun struct {
	spec tpcaSpec
	dev  *core.Device
	bank *tpca.Bank
	dr   *tpca.Driver
}

func setupTPCA(spec tpcaSpec, seed uint64, tr *tracer) (instance, error) {
	tr.begin(spanNew)
	dev, err := core.New(core.Config{
		Geometry:      spec.geometry,
		Cleaning:      cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: tpcaHybridParts, WearThreshold: 100},
		BufferPages:   spec.bufferPages,
		ParallelFlush: spec.parallelFlush,
	})
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	tr.begin(spanLoad)
	bank, err := tpca.Setup(dev, tpca.Config{
		Branches:          spec.branches,
		AccountsPerTeller: spec.accountsPerTeller,
		Seed:              seed,
		InitialBalance:    initialBalance,
	})
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("tpca.Setup: %w", err)
	}
	tr.begin(spanAge)
	dev.Churn(spec.ageWrites, seed^tpcaChurnSalt)
	tr.end()
	r := &tpcaRun{spec: spec, dev: dev, bank: bank, dr: tpca.NewDriverDepth(bank, 1)}
	tr.begin(spanWarm)
	defer tr.end()
	for i := 0; i < 2; i++ {
		if _, err := r.dr.Run(spec.rate, tpcaWarm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

// tpcaRefEvery is how many measured rounds run between two slices of
// reference work.
const tpcaRefEvery = 32

func (r *tpcaRun) measure(seconds int, tr *tracer, ref *speedRef) (*outcome, error) {
	rounds := seconds * r.spec.roundsPerSecond
	if rounds < tpcaMinRounds {
		rounds = tpcaMinRounds
	}
	out := newOutcome()
	t := &out.sim
	var lat nsHist
	var mem memMeter
	tr.phase("measure")
	mem.start()
	for i := 0; i < rounds; i++ {
		if i%tpcaRefEvery == 0 {
			ref.sample()
		}
		t.begin(r.dev)
		tr.begin(spanRun)
		s := time.Now()
		res, err := r.dr.Run(r.spec.rate, tpcaRound)
		w := time.Since(s)
		tr.end()
		out.wall += w
		if err != nil {
			return nil, fmt.Errorf("round %d: Driver.Run: %w", i, err)
		}
		t.absorb(r.dev)
		t.ops += res.Completed
		if res.Completed > 0 {
			lat.add(w.Nanoseconds() / res.Completed)
		}
		t.sojournP99 = append(t.sojournP99, float64(res.HostP99))
		t.depthTime += res.HostMeanDepth * float64(r.dev.Now().Sub(t.segStart))
	}
	mem.stop()
	out.attempted = t.ops
	mem.report(out, t.ops)
	out.opLatency(&lat)
	out.values["tpca.reads_per_txn"] = ratio(float64(t.counters.HostReads), float64(t.ops))
	out.values["tpca.writes_per_txn"] = ratio(float64(t.counters.HostWrites), float64(t.ops))
	return out, r.finish(out, tr, ref)
}

// finish runs the crash/recover cycles, each crashing the device one
// round into fresh work, then checks that every acknowledged
// transaction survived: per teller, the account balance changes sum to
// the teller's change, and per branch, the teller changes sum to the
// branch's. The device's own consistency check must pass too.
func (r *tpcaRun) finish(out *outcome, tr *tracer, ref *speedRef) error {
	var recs []float64
	tr.phase("recover")
	for i := 0; i < r.spec.recoveries; i++ {
		res, err := r.dr.Run(r.spec.rate, tpcaRound)
		if err != nil {
			return fmt.Errorf("pre-crash round: Driver.Run: %w", err)
		}
		out.attempted += res.Completed
		ref.sample()
		r.dev.CrashPowerCycle()
		var rep recovery.Report
		ms, err := timedRecover(tr, func() (err error) {
			rep, err = recovery.Recover(r.dev)
			return err
		})
		recs = append(recs, ms)
		out.attempted++
		if err != nil {
			out.fail("recovery.Recover: %v", err)
			return nil
		}
		out.sim.discarded += rep.FlushesDiscarded
		out.sim.quarantined += rep.TornQuarantined
		out.sim.orphans += rep.Orphans
	}
	out.values["recover_ms"] = median(recs)
	out.sim.values(out.values)

	tr.phase("verify")
	tr.begin(spanVerify)
	defer tr.end()
	sp := r.spec
	tellers := sp.branches * tpca.TellersPerBranch
	tellerSum := make([]int64, tellers)
	for acct := 1; acct <= r.bank.Accounts(); acct++ {
		a, _, _ := r.bank.RecordAddrs(acct)
		tellerSum[(acct-1)/sp.accountsPerTeller] += r.bank.Balance(a) - initialBalance
	}
	for b := 0; b < sp.branches; b++ {
		var branchSum int64
		for t := b * tpca.TellersPerBranch; t < (b+1)*tpca.TellersPerBranch; t++ {
			_, tAddr, _ := r.bank.RecordAddrs(t*sp.accountsPerTeller + 1)
			got := r.bank.Balance(tAddr) - initialBalance
			out.attempted++
			if got != tellerSum[t] {
				out.fail("teller %d changed by %d, its accounts by %d", t+1, got, tellerSum[t])
			}
			branchSum += got
		}
		_, _, bAddr := r.bank.RecordAddrs(b*tpca.TellersPerBranch*sp.accountsPerTeller + 1)
		got := r.bank.Balance(bAddr) - initialBalance
		out.attempted++
		if got != branchSum {
			out.fail("branch %d changed by %d, its tellers by %d", b+1, got, branchSum)
		}
	}
	out.attempted++
	if err := r.dev.CheckConsistency(); err != nil {
		out.fail("CheckConsistency: %v", err)
	}
	return nil
}
