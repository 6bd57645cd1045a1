package sim

import "testing"

func TestShardedClockMerge(t *testing.T) {
	var c ShardedClock
	c.Reset(Time(1000), 3)
	if c.Base() != 1000 {
		t.Fatalf("base = %v, want 1000", c.Base())
	}
	if got := c.Merge(); got != 1000 {
		t.Fatalf("empty merge = %v, want base 1000", got)
	}
	c.Lane(0).Advance(50)
	c.Lane(2).Advance(10)
	c.Lane(2).Advance(300)
	c.Lane(1).Advance(-40) // clamped: lanes never move backwards
	if got := c.Lane(1).Now(); got != 1000 {
		t.Fatalf("lane 1 after negative advance = %v, want 1000", got)
	}
	if got := c.Merge(); got != 1310 {
		t.Fatalf("merge = %v, want 1310 (max lane end)", got)
	}
}

// TestShardedClockDeterminism advances the lanes in forward and in
// reverse order and checks both merges agree with the expected end —
// the merged time depends only on what each lane did, never on the
// order the lanes ran in.
func TestShardedClockDeterminism(t *testing.T) {
	const lanes = 8
	for trial := 0; trial < 50; trial++ {
		for _, reverse := range []bool{false, true} {
			var c ShardedClock
			c.Reset(Time(trial), lanes)
			for k := 0; k < lanes; k++ {
				i := k
				if reverse {
					i = lanes - 1 - k
				}
				for j := 0; j <= i; j++ {
					c.Lane(i).Advance(Duration(100 * (i + 1)))
				}
			}
			// Lane i advances (i+1) times by 100*(i+1): max is lane 7 at
			// 8*800 = 6400 past base.
			if got, want := c.Merge(), Time(trial).Add(6400); got != want {
				t.Fatalf("trial %d (reverse %v): merge = %v, want %v", trial, reverse, got, want)
			}
		}
	}
}

// TestShardedClockReset reuses one clock across batches of different
// sizes: every lane restarts at the new base, and lanes advanced in an
// earlier, larger batch leave no trace in the merge.
func TestShardedClockReset(t *testing.T) {
	var c ShardedClock
	c.Reset(Time(0), 4)
	c.Lane(3).Advance(5000)
	c.Reset(Time(100), 2)
	if got := c.Merge(); got != 100 {
		t.Fatalf("merge after reset = %v, want base 100", got)
	}
	c.Lane(1).Advance(30)
	if got := c.Merge(); got != 130 {
		t.Fatalf("merge = %v, want 130", got)
	}
	c.Reset(Time(200), 4)
	for i := 0; i < 4; i++ {
		if got := c.Lane(i).Now(); got != 200 {
			t.Fatalf("lane %d after growing reset = %v, want 200", i, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.Reset(Time(300), 3) }); n != 0 {
		t.Errorf("Reset allocates %v times, want 0", n)
	}
}
