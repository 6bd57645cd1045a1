package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"envy/internal/cleaner"
	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/sram"
)

// pickFlushFrameRef is the linear-scan flush pick pickFlushFrame
// replaced, kept as the reference it must agree with: it walks every
// buffered frame from the tail and tests each one's predicted target
// bank against the in-flight flush set and the bank claims.
func pickFlushFrameRef(d *Device) *sram.Frame {
	geo := d.cfg.Geometry
	occupied := make([]bool, geo.Banks)
	for _, ppn := range d.flushPPN {
		seg, _ := geo.Split(ppn)
		occupied[geo.BankOf(seg)] = true
	}
	for _, u := range d.diffInflight {
		seg, _ := geo.Split(u.ppn)
		occupied[geo.BankOf(seg)] = true
	}
	var found *sram.Frame
	d.buf.Frames(func(f *sram.Frame) {
		if found != nil || f.Flushing {
			return
		}
		seg := d.eng.PeekFlushSegment(f.Home)
		if seg < 0 {
			return
		}
		bank := geo.BankOf(seg)
		if occupied[bank] || (d.hostConc == 1 && d.banks.Busy(bank)) {
			return
		}
		found = f
	})
	return found
}

// pickCheck wraps a device's flush policy and, at every expansion,
// compares pickFlushFrame with the reference before delegating. Both
// policies call selectFlushFrame first, so the state compared is the
// state the real pick sees.
type pickCheck struct {
	inner        flushPolicy
	t            *testing.T
	picks, found int
}

func (p *pickCheck) expandOne(d *Device) bool {
	got, want := d.pickFlushFrame(), pickFlushFrameRef(d)
	if got != want {
		p.t.Fatalf("pick %d: pickFlushFrame = %s, reference = %s", p.picks, frameName(got), frameName(want))
	}
	p.picks++
	if got != nil {
		p.found++
	}
	return p.inner.expandOne(d)
}

func frameName(f *sram.Frame) string {
	if f == nil {
		return "nil"
	}
	return fmt.Sprintf("page %d (home %d)", f.Logical, f.Home)
}

// parallelPickConfig is a §6 hybrid device small enough to cycle its
// buffer and clean many times: 8 banks, ParallelFlush 8.
func parallelPickConfig() Config {
	return Config{
		Geometry:      flash.Geometry{PageSize: 64, PagesPerSegment: 32, Segments: 32, Banks: 8},
		Cleaning:      cleaner.Config{Kind: cleaner.Hybrid, PartitionSegments: 4},
		BufferPages:   32,
		ParallelFlush: 8,
	}
}

// runPickWorkload drives a skewed random read/write mix with idle gaps
// through d.
func runPickWorkload(t *testing.T, d *Device, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pages := d.LogicalPages()
	hot := pages / 5
	for i := 0; i < steps; i++ {
		page := rng.Intn(pages)
		if rng.Intn(10) < 8 {
			page = rng.Intn(hot)
		}
		addr := uint64(page)*64 + uint64(rng.Intn(16))*4
		if rng.Intn(3) == 0 {
			d.ReadWord(addr)
		} else {
			d.WriteWord(addr, rng.Uint32())
		}
		if rng.Intn(4) == 0 {
			d.AdvanceTo(d.Now().Add(sim.Duration(rng.Intn(40)) * sim.Microsecond))
		}
		if i%1000 == 999 {
			if err := d.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

// TestPickFlushFrameMatchesReference checks the per-partition pick
// against the linear scan at every flush expansion of a randomized
// ParallelFlush 8 hybrid workload: at host depth 1 (bank claims
// steer), depth 4 (they do not) and under the differential policy.
func TestPickFlushFrameMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		depth int
		diff  bool
	}{
		{"depth1", 1, false},
		{"depth4", 4, false},
		{"diff", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := parallelPickConfig()
				if tc.diff {
					cfg.FlushPolicy = DiffFlush
				}
				d := newDevice(t, cfg)
				d.SetHostConcurrency(tc.depth)
				check := &pickCheck{inner: d.policy, t: t}
				d.policy = check
				runPickWorkload(t, d, seed, 6000)
				if check.picks < 500 || check.found == 0 || check.found == check.picks {
					t.Fatalf("seed %d: %d picks, %d found: the workload does not exercise both outcomes",
						seed, check.picks, check.found)
				}
			}
		})
	}
}

// TestPickFlushFrameClaimedBank covers the bank-claim term of the pick,
// which random workloads this small rarely make decisive: with the
// picked frame's target bank claimed, depth 1 must steer away from it
// and depth 4 must not, both in agreement with the reference.
func TestPickFlushFrameClaimedBank(t *testing.T) {
	for _, depth := range []int{1, 4} {
		d := newDevice(t, parallelPickConfig())
		d.SetHostConcurrency(depth)
		runPickWorkload(t, d, 1, 500)
		d.sched.Preempt(d.Now()) // releases every background claim
		f := d.pickFlushFrame()
		if f == nil {
			t.Fatal("no frame to pick")
		}
		bank := d.cfg.Geometry.BankOf(d.eng.PeekFlushSegment(f.Home))
		d.banks.Claim(bank, 1<<40)
		got, want := d.pickFlushFrame(), pickFlushFrameRef(d)
		d.banks.Release(bank, 1<<40)
		if got != want {
			t.Fatalf("depth %d: pickFlushFrame = %s, reference = %s", depth, frameName(got), frameName(want))
		}
		if blocked := got != f; blocked != (depth == 1) {
			t.Errorf("depth %d: claimed bank %d changed the pick %v, want %v", depth, bank, blocked, depth == 1)
		}
	}
}

// TestCheckConsistencyBankFlushes is the negative test for the per-bank
// in-flight counts: CheckConsistency recounts them from the
// reservations and reports a drifted count.
func TestCheckConsistencyBankFlushes(t *testing.T) {
	d := newDevice(t, parallelPickConfig())
	d.SetHostConcurrency(1)
	runPickWorkload(t, d, 1, 500)
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	d.bankFlushes[3]++
	err := d.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "in-flight flush targets") {
		t.Fatalf("CheckConsistency = %v, want a bank-count mismatch", err)
	}
}

// TestPickFlushFrameAllocs gates the §6 flush pick at zero allocations.
func TestPickFlushFrameAllocs(t *testing.T) {
	d := newDevice(t, parallelPickConfig())
	d.SetHostConcurrency(1)
	runPickWorkload(t, d, 1, 500)
	if d.pickFlushFrame() == nil {
		t.Fatal("no frame to pick: the gate would skip the buffer scan")
	}
	if n := testing.AllocsPerRun(100, func() { d.pickFlushFrame() }); n != 0 {
		t.Errorf("pickFlushFrame allocates %v times per call, want 0", n)
	}
}
