package sched

import (
	"math/rand"
	"strings"
	"testing"

	"envy/internal/flash"
	"envy/internal/sim"
	"envy/internal/stats"
)

// TestPreemptParkedOnlyMovesCursor pins the parked shortcut: a second
// Preempt with nothing in between suspends nothing new and counts no
// second suspension, but still catches the cursor up.
func TestPreemptParkedOnlyMovesCursor(t *testing.T) {
	f := newFixture(2, 4, Hooks{})
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 1000, 0))
	f.s.Enqueue(op(stats.OpErase, stats.Erasing, 5000, 1))
	f.s.Run(0, 100)
	f.s.Preempt(200) // releases the claims
	f.s.Preempt(250) // finds none: parks
	if !f.s.parked {
		t.Fatal("Preempt did not park the scheduler")
	}
	before := *f.os
	f.s.Preempt(300)
	if *f.os != before {
		t.Errorf("parked Preempt changed op stats: %+v -> %+v", before, *f.os)
	}
	if f.s.Cursor() != 300 {
		t.Errorf("cursor = %d after parked Preempt, want 300", f.s.Cursor())
	}
	if err := f.s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 1000, 2))
	if f.s.parked {
		t.Error("Enqueue left the scheduler parked")
	}
}

// TestPreemptReleasingClaimsDoesNotPark pins why a Preempt that
// releases claims leaves the scheduler unparked. With one flush lane,
// an erase W runs on bank 0 while a FIFO-earlier flush U on the same
// bank waits for the flush lane. Once the lane frees, pick still puts
// claim holder W first, so the first Preempt suspends only W; with W's
// claim released, pick turns to FIFO order and U takes bank 0, so the
// second Preempt must suspend U too.
func TestPreemptReleasingClaimsDoesNotPark(t *testing.T) {
	banks := flash.NewBankSet(2)
	bd, os := &stats.Breakdown{}, &stats.OpStats{}
	s := New(2, 1, 2*sim.Microsecond, banks, bd, os, Hooks{})
	s.Enqueue(op(stats.OpFlush, stats.Flushing, 100, 1))
	u := op(stats.OpFlush, stats.Flushing, 1000, 0)
	s.Enqueue(u)
	w := op(stats.OpErase, stats.Erasing, 5000, 0)
	s.Enqueue(w)
	s.Run(0, 100) // the bank-1 flush completes exactly at the window's end
	if !w.claimed || u.claimed {
		t.Fatalf("after the first flush: erase claimed=%v, waiting flush claimed=%v", w.claimed, u.claimed)
	}
	s.Preempt(200)
	if s.parked {
		t.Fatal("a Preempt that released a claim parked the scheduler")
	}
	if !w.suspended || u.suspended {
		t.Fatalf("first Preempt: erase suspended=%v, flush suspended=%v", w.suspended, u.suspended)
	}
	s.Preempt(300)
	if !s.parked || !u.suspended {
		t.Fatalf("second Preempt: parked=%v, flush suspended=%v", s.parked, u.suspended)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfCheckParkedClaim is the negative test for the first parked
// invariant: a parked scheduler must hold no bank claim.
func TestSelfCheckParkedClaim(t *testing.T) {
	f := newFixture(1, 2, Hooks{})
	o := op(stats.OpErase, stats.Erasing, 10000, 0)
	f.s.Enqueue(o)
	f.s.Run(0, 100)
	f.s.Preempt(200)
	f.s.Preempt(250)
	if err := f.s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: the op resumes and re-claims its bank behind the
	// scheduler's back, leaving the parked flag set.
	o.suspended = false
	o.claimed = true
	f.s.banks.Claim(o.Bank, o.id)
	err := f.s.SelfCheck()
	if err == nil || !strings.Contains(err.Error(), "parked scheduler holds") {
		t.Fatalf("SelfCheck = %v, want a parked-claim violation", err)
	}
}

// TestSelfCheckParkedUnsuspended is the negative test for the second
// parked invariant: every op pick would return must already be
// suspended — here an op joins the queue without Enqueue clearing the
// flag.
func TestSelfCheckParkedUnsuspended(t *testing.T) {
	f := newFixture(2, 2, Hooks{})
	f.s.Preempt(100) // empty queue: parked with nothing to suspend
	if err := f.s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	f.s.queue = append(f.s.queue, op(stats.OpFlush, stats.Flushing, 1000, 1))
	err := f.s.SelfCheck()
	if err == nil || !strings.Contains(err.Error(), "would pick unsuspended") {
		t.Fatalf("SelfCheck = %v, want a parked-unsuspended violation", err)
	}
}

// TestRandomizedParkedEquivalence drives two schedulers through the
// same random Enqueue/Run/Preempt/Overlap/Reset sequence. One keeps
// the parked shortcut; the other has it cleared before every Preempt,
// so it always rescans. SelfCheck must pass after every step, and the
// two must agree on every completion, counter and breakdown bucket.
func TestRandomizedParkedEquivalence(t *testing.T) {
	const banks = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lanes := 1 + rng.Intn(banks)
		flushLanes := 1 + rng.Intn(lanes)
		type side struct {
			s     *Scheduler
			bd    *stats.Breakdown
			os    *stats.OpStats
			order []int
		}
		mk := func() *side {
			sd := &side{bd: &stats.Breakdown{}, os: &stats.OpStats{}}
			sd.s = New(lanes, flushLanes, 2*sim.Microsecond, flash.NewBankSet(banks), sd.bd, sd.os, Hooks{})
			return sd
		}
		fast, slow := mk(), mk()
		kinds := []stats.OpKind{stats.OpFlush, stats.OpCleanCopy, stats.OpErase, stats.OpWearSwap}
		nextOp := 0
		for step := 0; step < 400; step++ {
			r := rng.Intn(100)
			var do func(sd *side)
			switch {
			case r < 30:
				kind := kinds[rng.Intn(len(kinds))]
				cost := sim.Duration(rng.Intn(8000))
				bank := rng.Intn(banks)
				id := nextOp
				nextOp++
				do = func(sd *side) {
					o := sd.s.GetOp()
					o.Kind, o.Act, o.Remaining, o.Bank = kind, stats.Flushing, cost, bank
					o.Done = func() { sd.order = append(sd.order, id) }
					sd.s.Enqueue(o)
				}
			case r < 50:
				gap := sim.Duration(rng.Intn(6000))
				do = func(sd *side) { sd.s.Run(sd.s.Cursor(), sd.s.Cursor().Add(gap)) }
			case r < 85:
				gap := sim.Duration(rng.Intn(300))
				do = func(sd *side) {
					if sd == slow {
						sd.s.parked = false
					}
					sd.s.Preempt(sd.s.Cursor().Add(gap))
				}
			case r < 97:
				gap := sim.Duration(rng.Intn(3000))
				bank := rng.Intn(banks+1) - 1
				do = func(sd *side) { sd.s.Overlap(bank, sd.s.Cursor().Add(gap)) }
			default:
				do = func(sd *side) { sd.s.Reset(sd.s.Cursor()) }
			}
			for _, sd := range []*side{fast, slow} {
				do(sd)
				if err := sd.s.SelfCheck(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if fast.s.Cursor() != slow.s.Cursor() || fast.s.Len() != slow.s.Len() {
				t.Fatalf("seed %d step %d: cursor/len %d/%d vs %d/%d", seed, step,
					fast.s.Cursor(), fast.s.Len(), slow.s.Cursor(), slow.s.Len())
			}
		}
		if *fast.bd != *slow.bd || *fast.os != *slow.os {
			t.Errorf("seed %d: parked shortcut changed the accounting:\n%+v\n%+v", seed, *fast.os, *slow.os)
		}
		if len(fast.order) != len(slow.order) {
			t.Fatalf("seed %d: %d vs %d completions", seed, len(fast.order), len(slow.order))
		}
		for i := range fast.order {
			if fast.order[i] != slow.order[i] {
				t.Fatalf("seed %d: completion %d is op %d vs %d", seed, i, fast.order[i], slow.order[i])
			}
		}
	}
}

// parkedFixture is a full 8-bank queue, preempted once so the
// scheduler is parked.
func parkedFixture() *fixture {
	f := newFixture(8, 8, Hooks{})
	for i := 0; i < 64; i++ {
		f.s.Enqueue(op(stats.OpFlush, stats.Flushing, 10000, i%8))
	}
	f.s.Run(0, 100)
	f.s.Preempt(200)
	f.s.Preempt(300)
	return f
}

// TestParkedPreemptAllocs gates the parked Preempt at zero allocations.
func TestParkedPreemptAllocs(t *testing.T) {
	f := parkedFixture()
	now := f.s.Cursor()
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(10)
		f.s.Preempt(now)
	}); n != 0 {
		t.Errorf("parked Preempt allocates %v times per call, want 0", n)
	}
}

// BenchmarkPreempt measures a host access's Preempt against a full
// 8-bank queue: parked (the repeat access of a busy burst) and
// rescanning (the parked flag cleared before every call, as if
// something had changed).
func BenchmarkPreempt(b *testing.B) {
	for _, parked := range []bool{true, false} {
		name := "parked"
		if !parked {
			name = "rescan"
		}
		b.Run(name, func(b *testing.B) {
			f := parkedFixture()
			now := f.s.Cursor()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !parked {
					f.s.parked = false
				}
				now = now.Add(10)
				f.s.Preempt(now)
			}
		})
	}
}
