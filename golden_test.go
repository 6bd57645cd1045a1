// Golden determinism tests: fixed-seed workloads whose full measurement
// snapshot (clock, latency stream hash, counters, breakdown fractions,
// wear) is pinned in testdata/golden/. The fixtures were captured from
// the pre-scheduler controller at ParallelFlush=1; the scheduler-based
// controller must reproduce them bit-identically — same seed + config
// ⇒ same simulated timeline.
//
// Regenerate (only when a change intentionally alters the timeline):
//
//	go test -run TestGolden -update
package envy_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"envy"
	"envy/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenSnapshot is the pinned measurement state. It deliberately lists
// each field instead of embedding envy.Stats: new Stats fields (for
// example per-operation scheduler counters) must not invalidate
// fixtures captured before they existed.
type goldenSnapshot struct {
	NowNs       int64  `json:"now_ns"`
	LatencyHash uint64 `json:"latency_hash"` // FNV-1a over every host latency, in order

	ReadMeanNs  int64 `json:"read_mean_ns"`
	WriteMeanNs int64 `json:"write_mean_ns"`
	ReadP99Ns   int64 `json:"read_p99_ns"`
	WriteP99Ns  int64 `json:"write_p99_ns"`
	ReadMaxNs   int64 `json:"read_max_ns"`
	WriteMaxNs  int64 `json:"write_max_ns"`

	Reads         int64 `json:"reads"`
	Writes        int64 `json:"writes"`
	CopyOnWrites  int64 `json:"copy_on_writes"`
	BufferHits    int64 `json:"buffer_hits"`
	Flushes       int64 `json:"flushes"`
	CleanCopies   int64 `json:"clean_copies"`
	SegmentCleans int64 `json:"segment_cleans"`
	Erases        int64 `json:"erases"`
	WearSwaps     int64 `json:"wear_swaps"`

	CleaningCost float64 `json:"cleaning_cost"`
	FracIdle     float64 `json:"frac_idle"`
	FracReading  float64 `json:"frac_reading"`
	FracWriting  float64 `json:"frac_writing"`
	FracFlushing float64 `json:"frac_flushing"`
	FracCleaning float64 `json:"frac_cleaning"`
	FracErase    float64 `json:"frac_erase"`

	MMUHitRate    float64 `json:"mmu_hit_rate"`
	WearMin       int64   `json:"wear_min"`
	WearMax       int64   `json:"wear_max"`
	BufferedPages int     `json:"buffered_pages"`
}

func snapshot(dev *envy.Device, latHash uint64) goldenSnapshot {
	s := dev.Stats()
	return goldenSnapshot{
		NowNs:       int64(dev.Now()),
		LatencyHash: latHash,
		ReadMeanNs:  int64(s.ReadMean), WriteMeanNs: int64(s.WriteMean),
		ReadP99Ns: int64(s.ReadP99), WriteP99Ns: int64(s.WriteP99),
		ReadMaxNs: int64(s.ReadMax), WriteMaxNs: int64(s.WriteMax),
		Reads: s.Reads, Writes: s.Writes,
		CopyOnWrites: s.CopyOnWrites, BufferHits: s.BufferHits,
		Flushes: s.Flushes, CleanCopies: s.CleanCopies,
		SegmentCleans: s.SegmentCleans, Erases: s.Erases, WearSwaps: s.WearSwaps,
		CleaningCost: s.CleaningCost,
		FracIdle:     s.FracIdle, FracReading: s.FracReading, FracWriting: s.FracWriting,
		FracFlushing: s.FracFlushing, FracCleaning: s.FracCleaning, FracErase: s.FracErase,
		MMUHitRate: s.MMUHitRate,
		WearMin:    s.WearMin, WearMax: s.WearMax,
		BufferedPages: s.BufferedPages,
	}
}

// fnv1a folds a value into a running FNV-1a hash; the golden tests
// chain every host-observed latency through it, so a one-nanosecond
// divergence anywhere in the timeline changes the final hash.
func fnv1a(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// goldenScenario drives one fixed-seed mixed workload through the
// public API: single writes and reads, block reads, idle stretches,
// committed transactions, and periodic clean power cycles.
func goldenScenario(t *testing.T, cfg envy.Config, seed uint64, ops int) goldenSnapshot {
	return goldenScenarioSkewed(t, cfg, seed, ops, 0)
}

// goldenScenarioSkewed is goldenScenario with optional hot/cold skew:
// with hotFrac > 0, 98% of the addresses land in the first hotFrac of
// the logical space, leaving cold segments to fall behind in wear (the
// condition that trips wear-leveling swaps). hotFrac == 0 draws
// nothing extra from the RNG, so uniform fixtures are unaffected.
func goldenScenarioSkewed(t *testing.T, cfg envy.Config, seed uint64, ops int, hotFrac float64) goldenSnapshot {
	t.Helper()
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	size := uint64(dev.Size())
	words := size / 4
	var hash uint64
	addr := func() uint64 {
		if hotFrac > 0 && rng.Float64() < 0.98 {
			hot := uint64(float64(words) * hotFrac)
			if hot == 0 {
				hot = 1
			}
			return rng.Uint64n(hot) * 4
		}
		return rng.Uint64n(words) * 4
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 50:
			lat, err := dev.WriteWordErr(addr(), uint32(rng.Uint64()))
			if err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
			hash = fnv1a(hash, uint64(lat))
		case r < 75:
			_, lat, err := dev.ReadWordErr(addr())
			if err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
			hash = fnv1a(hash, uint64(lat))
		case r < 85:
			var buf [16]byte
			a := addr()
			if a+16 > size {
				a = size - 16
			}
			lat, err := dev.ReadErr(buf[:], a)
			if err != nil {
				t.Fatalf("op %d: block read: %v", i, err)
			}
			hash = fnv1a(hash, uint64(lat))
		case r < 93:
			dev.Idle(time.Duration(1+rng.Intn(20)) * time.Microsecond)
		default:
			if err := dev.Begin(); err != nil {
				t.Fatalf("op %d: begin: %v", i, err)
			}
			for j := 0; j < 3; j++ {
				lat, err := dev.WriteWordErr(addr(), uint32(rng.Uint64()))
				if err != nil {
					t.Fatalf("op %d: txn write: %v", i, err)
				}
				hash = fnv1a(hash, uint64(lat))
			}
			if err := dev.Commit(); err != nil {
				t.Fatalf("op %d: commit: %v", i, err)
			}
		}
		if i%1024 == 1023 {
			dev.PowerCycle()
		}
	}
	dev.Idle(2 * time.Millisecond) // drain in-flight background work
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("post-workload consistency: %v", err)
	}
	return snapshot(dev, hash)
}

// goldenCompare checks got, rendered as indented JSON, against the
// fixture testdata/golden/<name>.json (or rewrites it under -update).
func goldenCompare(t *testing.T, name string, got any) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".json")
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if string(want) != string(raw) {
		t.Errorf("timeline diverged from golden fixture %s:\n got %s\nwant %s", path, raw, want)
	}
}

// goldenConfig is the shared small geometry: 32 segments of 64 pages
// over 8 banks, a 64-frame buffer, aggressive wear leveling so the
// swap path is exercised.
func goldenConfig(policy envy.Policy) envy.Config {
	return envy.Config{
		PageSize:        256,
		PagesPerSegment: 64,
		Segments:        32,
		Banks:           8,
		Policy:          policy,
		// PartitionSegments default (16) applies to HybridPolicy.
		WearThreshold: 8,
		BufferPages:   64,
	}
}

func TestGoldenHybrid(t *testing.T) {
	goldenCompare(t, "hybrid", goldenScenario(t, goldenConfig(envy.HybridPolicy), 0x5eed1, 6000))
}

func TestGoldenGreedy(t *testing.T) {
	goldenCompare(t, "greedy", goldenScenario(t, goldenConfig(envy.GreedyPolicy), 0x5eed2, 6000))
}

// TestGoldenSmallConfig pins the paper-shaped small profile (128
// segments, 8 banks, hybrid-16) under a shorter workload.
func TestGoldenSmallConfig(t *testing.T) {
	cfg := envy.SmallConfig()
	cfg.BufferPages = 256 // small enough that the flush path engages
	goldenCompare(t, "smallconfig", goldenScenario(t, cfg, 0x5eed3, 4000))
}

// TestGoldenWear pins a high-churn tiny array where the wear-leveling
// threshold trips repeatedly, so the WearSwap timeline (two relocations
// plus erases per swap) is part of the golden record.
func TestGoldenWear(t *testing.T) {
	cfg := envy.Config{
		PageSize:        256,
		PagesPerSegment: 32,
		Segments:        8,
		Banks:           4,
		Policy:          envy.HybridPolicy,
		// Pure locality gathering (§4.3) segregates the hot set into its
		// own segments, which is what makes cold segments stop cycling
		// and the wear spread grow.
		PartitionSegments: 1,
		WearThreshold:     2,
		BufferPages:       16,
	}
	// The hot set must overflow the 16-frame buffer (or it never
	// flushes) while leaving most segments cold: 25% of ~200 logical
	// pages ≈ 50 hot pages against a 32-page segment.
	snap := goldenScenarioSkewed(t, cfg, 0x5eed4, 12000, 0.25)
	if snap.WearSwaps == 0 {
		t.Error("wear scenario performed no wear swaps; the WearSwap timeline is not covered")
	}
	goldenCompare(t, "wear", snap)
}

// TestGoldenRepeatable double-checks that two runs of the same scenario
// in one process agree before comparing against the fixture — a guard
// that distinguishes "the refactor changed the timeline" from "the
// workload itself is nondeterministic".
func TestGoldenRepeatable(t *testing.T) {
	a := goldenScenario(t, goldenConfig(envy.HybridPolicy), 0x5eed1, 1500)
	b := goldenScenario(t, goldenConfig(envy.HybridPolicy), 0x5eed1, 1500)
	if a != b {
		t.Fatalf("same seed, same config, different snapshots:\n a %+v\n b %+v", a, b)
	}
}
