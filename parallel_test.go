// Parallel host service tests: the batched device core must (a) stay
// data-race free under racing submitters, (b) replay the pinned lane
// fixture bit-identically, (c) perform exactly the same logical
// operations as the serial engine, and (d) collapse to the serial path
// — bit-identical results — at queue depth 1. The golden fixtures in
// testdata/golden pin the serial path itself, so (d) chains the
// parallel build to the pre-parallel timeline.
package envy_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"envy"
	"envy/internal/core"
	"envy/internal/flash"
	"envy/internal/host"
)

// parallelTestConfig is the concurrency-test geometry with the
// parallel service path on.
func parallelTestConfig() envy.Config {
	cfg := concurrencyConfig()
	cfg.ParallelFlush = cfg.Banks
	cfg.HostQueueDepth = 8
	cfg.ParallelService = true
	return cfg
}

// submitHammer drives racing submitters through the public queue:
// workers submit word reads and writes over their own shard-spread
// stripes, an observer snapshots Stats, and the main goroutine drains.
// Verification is read-after-write per stripe, same as the synchronous
// hammer. Returns whether the device crashed mid-run (for the
// crash-arm variant).
func submitHammer(t *testing.T, dev *envy.Device, workers, opsPerWorker int, tolerateCrash bool) bool {
	t.Helper()
	stripe := uint64(4096)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * stripe
			buf := make([]byte, 4)
			for i := 0; i < opsPerWorker; i++ {
				addr := base + uint64(i*132)%stripe
				want := byte(w<<4) ^ byte(i)
				wr := &envy.Request{Write: true, Addr: addr, Data: []byte{want, want, want, want}}
				if err := dev.Submit(wr); err != nil {
					t.Errorf("worker %d: submit write %#x: %v", w, addr, err)
					return
				}
				if err := dev.Wait(wr); err != nil {
					if tolerateCrash && crashedErr(err) {
						return
					}
					t.Errorf("worker %d: write %#x: %v", w, addr, err)
					return
				}
				rd := &envy.Request{Addr: addr, Data: buf}
				if err := dev.Submit(rd); err != nil {
					t.Errorf("worker %d: submit read %#x: %v", w, addr, err)
					return
				}
				if err := dev.Wait(rd); err != nil {
					if tolerateCrash && crashedErr(err) {
						return
					}
					t.Errorf("worker %d: read %#x: %v", w, addr, err)
					return
				}
				if buf[0] != want {
					t.Errorf("worker %d: read %#x = %#x, want %#x", w, addr, buf[0], want)
					return
				}
			}
		}(w)
	}
	// Stats and queue-introspection observer: must be race-free against
	// the submitters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < opsPerWorker; i++ {
			s := dev.Stats()
			if s.Writes < 0 || s.HostBatches < 0 {
				t.Error("observer: negative counter")
				return
			}
			_ = dev.Outstanding()
			if i%16 == 0 {
				dev.Idle(100_000)
			}
		}
	}()
	wg.Wait()
	dev.Drain()
	return dev.Crashed()
}

func TestParallelSubmitHammer(t *testing.T) {
	dev, err := envy.New(parallelTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	submitHammer(t, dev, 8, 200, false)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-hammer consistency: %v", err)
	}
	s := dev.Stats()
	if s.Reads == 0 || s.Writes == 0 {
		t.Fatalf("hammer recorded no traffic: %+v", s)
	}
}

// TestParallelCrashArmHammer arms a crash plan under the racing
// submitters, then recovers and hammers again: the §3.4 fault machinery
// and the parallel service path must coexist (an armed injector sends
// every request down the serial path, so the crash point is serviced
// in a deterministic serial window).
func TestParallelCrashArmHammer(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.FaultPlan = &envy.FaultPlan{Program: 40, Seed: 0x9e3779b97f4a7c15}
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !submitHammer(t, dev, 8, 200, true) {
		t.Fatal("fault plan never fired during the submit hammer")
	}
	if _, err := dev.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-recovery consistency: %v", err)
	}
	submitHammer(t, dev, 4, 80, false)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-recovery hammer consistency: %v", err)
	}
}

// laneRig is a small internal-stack harness whose SubmitAll groups are
// guaranteed disjoint, so every round exercises real multi-lane
// batches (the public Submit pump rarely queues more than one eligible
// request at a time on an idle device).
type laneRig struct {
	dev     *core.Device
	eng     *host.Engine
	regions []uint64 // segment-aligned read regions with disjoint footprints
	pages   []uint64 // SRAM-buffered page addresses in distinct shards
	segByte int
}

func newLaneRig(t *testing.T) *laneRig {
	t.Helper()
	geo := flash.Geometry{PageSize: 128, PagesPerSegment: 32, Segments: 16, Banks: 4}
	cfg := core.Config{
		Geometry:        geo,
		BufferPages:     64,
		ParallelFlush:   geo.Banks,
		ParallelService: true,
	}
	dev, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 8*geo.PageSize)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for addr := int64(0); addr < dev.Size(); addr += int64(len(chunk)) {
		n := dev.Size() - addr
		if n > int64(len(chunk)) {
			n = int64(len(chunk))
		}
		if err := dev.Preload(chunk[:n], uint64(addr)); err != nil {
			t.Fatal(err)
		}
	}
	dev.ResetStats()
	dev.SetHostConcurrency(8)
	eng := host.New(dev, 8, geo.PageSize)
	eng.SetParallel(dev)
	rig := &laneRig{dev: dev, eng: eng, segByte: geo.PagesPerSegment * geo.PageSize}

	// Disjoint Flash-read regions, resolved through the admission
	// primitive itself (placement is whatever the preload chose).
	var fps []*core.Footprint
	for addr := uint64(0); int64(addr)+int64(rig.segByte) <= dev.Size() && len(rig.regions) < geo.Banks; addr += uint64(rig.segByte) {
		fp := &core.Footprint{}
		if !dev.Footprint(fp, addr, rig.segByte, false) {
			t.Fatalf("no footprint for preloaded region %#x", addr)
		}
		disjoint := true
		for _, g := range fps {
			if !fp.Disjoint(g) {
				disjoint = false
				break
			}
		}
		if disjoint {
			rig.regions = append(rig.regions, addr)
			fps = append(fps, fp)
		}
	}
	if len(rig.regions) < 2 {
		t.Fatalf("found %d disjoint regions, need at least 2", len(rig.regions))
	}

	// A few SRAM-buffered pages in distinct shards (ParallelService
	// splits the logical space into four shards per bank): first writes
	// take the serial copy-on-write path; the rig's rounds then rewrite
	// them on lanes (buffered writes carry shard-only footprints).
	shardBytes := (dev.Size()/int64(geo.PageSize)/int64(4*geo.Banks) + 1) * int64(geo.PageSize)
	for s := 0; s < 4; s++ {
		addr := uint64(s) * uint64(shardBytes)
		w := &host.Request{Write: true, Addr: addr, Data: []byte{1, 2, 3, 4}}
		eng.Submit(w)
		eng.Drain()
		if w.Err != nil {
			t.Fatalf("seed write %#x: %v", addr, w.Err)
		}
		rig.pages = append(rig.pages, addr)
	}
	return rig
}

// round submits one batch of disjoint reads plus buffered writes and
// drains it.
func (r *laneRig) round(t *testing.T, i int, bufs [][]byte) {
	t.Helper()
	var reqs []*host.Request
	for j, addr := range r.regions {
		reqs = append(reqs, &host.Request{Addr: addr, Data: bufs[j]})
	}
	for _, addr := range r.pages {
		reqs = append(reqs, &host.Request{Write: true, Addr: addr, Data: []byte{byte(i), byte(i >> 8), 0, 1}})
	}
	r.eng.SubmitAll(reqs...)
	r.eng.Drain()
	for _, q := range reqs {
		if q.Err != nil {
			t.Fatalf("round %d: %v", i, q.Err)
		}
	}
}

// laneOutcome is everything a lane workload run measures, pinned in
// testdata/golden/lanes.json.
type laneOutcome struct {
	Now      time.Duration
	Counters interface{}
	ReadLat  string
	WriteLat string
	Batches  int64
	MaxBatch int
}

func runLaneWorkload(t *testing.T, rounds int) laneOutcome {
	t.Helper()
	rig := newLaneRig(t)
	bufs := make([][]byte, len(rig.regions))
	for i := range bufs {
		bufs[i] = make([]byte, rig.segByte)
	}
	for i := 0; i < rounds; i++ {
		rig.round(t, i, bufs)
	}
	rl, wl := rig.dev.ReadLatency(), rig.dev.WriteLatency()
	return laneOutcome{
		Now:      time.Duration(rig.dev.Now()),
		Counters: rig.dev.Counters(),
		ReadLat:  rl.String(),
		WriteLat: wl.String(),
		Batches:  rig.eng.Batches(),
		MaxBatch: rig.eng.MaxBatch(),
	}
}

// TestParallelLaneDeterminism pins the batched path's simulated
// outcome — clock, counters, latency summaries, batch shape — to the
// fixture testdata/golden/lanes.json.
func TestParallelLaneDeterminism(t *testing.T) {
	got := runLaneWorkload(t, 40)
	if got.MaxBatch < 2 {
		t.Fatalf("workload never batched (max batch %d); lanes were not exercised", got.MaxBatch)
	}
	goldenCompare(t, "lanes", got)
}

// TestParallelSerialOpCounters is the op-counter smoke CI runs: the
// parallel path must perform exactly the same logical operations as
// the serial multi-outstanding engine for the same submissions — only
// the simulated timing may differ. The workload stays under the flush
// high-water mark so background activity (whose schedule legitimately
// shifts when host accesses overlap) stays out of the comparison.
func TestParallelSerialOpCounters(t *testing.T) {
	run := func(parallel bool) envy.Stats {
		cfg := parallelTestConfig()
		cfg.ParallelService = parallel
		dev, err := envy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		for i := 0; i < 24; i++ {
			addr := uint64(i) * 1024
			w := &envy.Request{Write: true, Addr: addr, Data: []byte{byte(i), 1, 2, 3}}
			if err := dev.Submit(w); err != nil {
				t.Fatal(err)
			}
			r := &envy.Request{Addr: addr, Data: buf}
			if err := dev.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		dev.Drain()
		return dev.Stats()
	}
	serial, par := run(false), run(true)
	ops := func(s envy.Stats) [9]int64 {
		return [9]int64{s.Reads, s.Writes, s.CopyOnWrites, s.BufferHits,
			s.Flushes, s.CleanCopies, s.SegmentCleans, s.Erases, s.WearSwaps}
	}
	if ops(serial) != ops(par) {
		t.Fatalf("op counters diverge:\n  serial:   %v\n  parallel: %v", ops(serial), ops(par))
	}
}

// TestParallelDepth1Identity chains the parallel build to the serial
// timeline: at queue depth 1 every batch has one member and takes the
// serial service path, so turning ParallelService on must not move a
// single bit of the measurement snapshot. (The golden fixtures pin the
// serial path itself, so this transitively pins depth-1 parallel runs
// to the pre-parallel goldens.)
func TestParallelDepth1Identity(t *testing.T) {
	run := func(parallel bool) (envy.Stats, time.Duration) {
		cfg := parallelTestConfig()
		cfg.HostQueueDepth = 1
		cfg.ParallelService = parallel
		dev, err := envy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		words := uint64(dev.Size())/4 - 2
		for i := 0; i < 600; i++ {
			addr := (uint64(i) * 409 % words) * 4
			if i%3 == 0 {
				if _, err := dev.ReadErr(buf, addr); err != nil {
					t.Fatal(err)
				}
				continue
			}
			w := &envy.Request{Write: true, Addr: addr, Data: []byte{byte(i), byte(i >> 8), 3, 4}}
			if err := dev.Submit(w); err != nil {
				t.Fatal(err)
			}
			if err := dev.Wait(w); err != nil {
				t.Fatal(err)
			}
		}
		dev.Drain()
		return dev.Stats(), dev.Now()
	}
	serialStats, serialNow := run(false)
	parStats, parNow := run(true)
	if serialNow != parNow {
		t.Fatalf("clock diverges at depth 1: serial %v, parallel %v", serialNow, parNow)
	}
	if !reflect.DeepEqual(serialStats, parStats) {
		t.Fatalf("stats diverge at depth 1:\n  serial:   %+v\n  parallel: %+v", serialStats, parStats)
	}
}

// TestFlushCleanOverlap drives enough write pressure through per-bank
// parallel flushing that cleaning copies overlap flush programming on
// distinct banks, and checks the scheduler's overlap accumulator saw
// it — the observable behind the §6 concurrency claim.
func TestFlushCleanOverlap(t *testing.T) {
	cfg := parallelTestConfig()
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	size := uint64(dev.Size())
	for i := uint64(0); i < 3*size/128; i++ {
		page[0] = byte(i)
		addr := (i * 128) % size
		w := &envy.Request{Write: true, Addr: addr, Data: page}
		if err := dev.Submit(w); err != nil {
			t.Fatal(err)
		}
		if err := dev.Wait(w); err != nil {
			t.Fatal(err)
		}
	}
	dev.Drain()
	s := dev.Stats()
	if s.CleanCopies == 0 || s.Flushes == 0 {
		t.Fatalf("write pressure produced no cleaning traffic: %+v", s)
	}
	if s.FlushCleanOverlap <= 0 {
		t.Fatalf("cleaning copies never overlapped flush programming (overlap %v, %d flushes, %d clean copies)",
			s.FlushCleanOverlap, s.Flushes, s.CleanCopies)
	}
}
