package sim

// ShardedClock is the simulated-clock decomposition behind the parallel
// host service path. A batch of requests with disjoint resource
// footprints all start at the same base time (they genuinely overlap on
// the simulated device, the way independent banks overlap in §6); each
// execution lane advances a private LaneClock, and the batch's merged
// completion time is the deterministic maximum of the lane ends.
//
// Lane clocks never observe each other, so the merged time is a pure
// function of the batch's admission order and the device state at
// admission.
type ShardedClock struct {
	base  Time
	lanes []LaneClock
}

// Reset starts the clock on a new batch of the given number of lanes,
// every lane at base. A clock is reused across batches, so a warmed one
// allocates nothing; lane clocks handed out before a reset must not be
// used after it.
func (c *ShardedClock) Reset(base Time, lanes int) {
	c.base = base
	if cap(c.lanes) < lanes {
		c.lanes = make([]LaneClock, lanes)
	}
	c.lanes = c.lanes[:lanes]
	for i := range c.lanes {
		c.lanes[i].now = base
	}
}

// Base returns the batch's shared start time.
func (c *ShardedClock) Base() Time { return c.base }

// Lane returns lane i's private clock.
func (c *ShardedClock) Lane(i int) *LaneClock { return &c.lanes[i] }

// Merge returns the batch completion time: the maximum lane end (the
// base itself if no lane advanced). Call only after every lane is done.
func (c *ShardedClock) Merge() Time {
	end := c.base
	for i := range c.lanes {
		if c.lanes[i].now > end {
			end = c.lanes[i].now
		}
	}
	return end
}

// LaneClock is one execution lane's private simulated clock.
type LaneClock struct {
	now Time
}

// Now returns the lane's current time.
func (l *LaneClock) Now() Time { return l.now }

// Advance moves the lane forward by d (negative durations are clamped
// to zero) and returns the new lane time.
func (l *LaneClock) Advance(d Duration) Time {
	if d > 0 {
		l.now = l.now.Add(d)
	}
	return l.now
}
