// Claimgraph fixture: multi-lock sequences within one lock class.
// Same-class edges are exempt from the rank and cycle checks, so every
// sequence here is clean whatever its index order.
package pagetable

import "sync"

// tableShard is a range of entries behind its own lock.
type tableShard struct {
	mu      sync.RWMutex
	entries []uint32
}

// Sharded is a range-sharded table.
type Sharded struct {
	shards []tableShard
}

// rangeAscending walks the shards forwards, one lock at a time.
func (t *Sharded) rangeAscending() {
	for si := range t.shards {
		t.shards[si].mu.RLock()
		_ = t.shards[si].entries
		t.shards[si].mu.RUnlock()
	}
}

// pairAscending holds two shards in ascending order.
func (t *Sharded) pairAscending() {
	t.shards[1].mu.Lock()
	t.shards[2].mu.Lock()
	t.shards[2].mu.Unlock()
	t.shards[1].mu.Unlock()
}

// pairDescending holds two shards in descending order: still one
// class, so no rank or cycle edge.
func (t *Sharded) pairDescending() {
	t.shards[2].mu.Lock()
	t.shards[1].mu.Lock()
	t.shards[1].mu.Unlock()
	t.shards[2].mu.Unlock()
}
