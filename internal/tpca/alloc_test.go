package tpca

import (
	"testing"

	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/flash"
	"envy/internal/host"
	"envy/internal/sim"
)

// The transaction path is allocation-flat: B-tree probes read through
// the tree's scratch buffer and the balance updates recycle their host
// requests. These gates pin that at zero allocations per transaction.

// TestTransactionViaAllocs runs transactions through a depth-1 host
// engine, the configuration the TPC-A experiments use.
func TestTransactionViaAllocs(t *testing.T) {
	b := testBank(t)
	eng := host.New(b.dev, 1, b.dev.Geometry().PageSize)
	r := sim.NewRNG(3)
	txn := func() {
		if err := b.transactionVia(eng, r.Intn(b.accounts)+1, int64(r.Intn(1999))-999); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		txn()
	}
	if n := testing.AllocsPerRun(200, txn); n != 0 {
		t.Errorf("transactionVia allocates %v times per transaction, want 0", n)
	}
}

// TestExecRunAllocs issues a warmed group of transactions through the
// parallel driver's batched service path.
func TestExecRunAllocs(t *testing.T) {
	d, err := core.New(core.Config{
		Geometry:        flash.Geometry{PageSize: 256, PagesPerSegment: 128, Segments: 128, Banks: 8},
		Cleaning:        cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 16},
		BufferPages:     2048,
		ParallelFlush:   8,
		ParallelService: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Setup(d, Config{Branches: 2, AccountsPerTeller: 500, Seed: 1, InitialBalance: 1000})
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriverParallel(b, 12)
	// Four accounts under distinct tellers of one branch: the branch
	// record conflicts, so the group splits into several runs.
	group := make([]groupTxn, 4)
	for i := range group {
		group[i].account = 1 + i*b.cfg.AccountsPerTeller
		group[i].delta = int64(i) + 1
		if group[i].addrs, err = b.resolveRecords(group[i].account); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		if err := b.transactGroup(dr.eng, group); err != nil {
			t.Fatal(err)
		}
		dr.eng.Drain()
	}
	for i := 0; i < 200; i++ {
		run()
	}
	if dr.eng.Batches() == 0 {
		t.Fatal("no parallel batch dispatched: the gate would not cover the lane path")
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("a transaction group allocates %v times, want 0", n)
	}
}

// TestDriverRunAllocs covers what the per-transaction gates leave out:
// a whole driver round on the aged §6 system offered far past
// saturation, so flushes, cleaning, redistribution and front
// maintenance all run inside it.
func TestDriverRunAllocs(t *testing.T) {
	d, err := core.New(core.Config{
		Geometry:      flash.Geometry{PageSize: 256, PagesPerSegment: 128, Segments: 128, Banks: 8},
		Cleaning:      cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 16, WearThreshold: 100},
		BufferPages:   2048,
		ParallelFlush: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Setup(d, Config{Branches: 2, AccountsPerTeller: 500, Seed: 1, InitialBalance: 1000})
	if err != nil {
		t.Fatal(err)
	}
	d.Churn(40_000, 7)
	dr := NewDriverDepth(b, 1)
	const rate = 64_000
	if _, err := dr.Run(rate, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var cleans int64 // Run resets the device counters: sum per round
	run := func() {
		if _, err := dr.Run(rate, 10*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		cleans += d.Counters().SegmentCleans
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("a 10 ms driver round allocates %v times, want 0", n)
	}
	if cleans == 0 {
		t.Error("no segment cleaned: the gate did not cover the cleaner")
	}
}
