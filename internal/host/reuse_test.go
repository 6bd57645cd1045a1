package host

import (
	"testing"

	"envy/internal/core"
)

// fakePar is a scripted parallel backend over fakeBE: every access's
// footprint is its first page as a shard, and a batch member ends one
// read cost after the batch base.
type fakePar struct{ *fakeBE }

func (f fakePar) Footprint(fp *core.Footprint, addr uint64, n int, write bool) bool {
	fp.Shards, fp.Banks = fp.Shards[:0], fp.Banks[:0]
	fp.AddShard(int(addr / ps))
	return true
}

func (f fakePar) ExecBatch(batch []*core.BatchAccess) {
	base := f.now
	for _, a := range batch {
		a.End = base.Add(f.readCost)
	}
	f.now = base.Add(f.readCost)
}

// TestEngineKeepsNoCompletedRequest checks the invariant request
// recycling rests on: once a request completes, no queue slot and no
// batch scratch of the engine points at it or its payload, so its
// owner may reset and resubmit it.
func TestEngineKeepsNoCompletedRequest(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		f := newFake()
		e := New(f, 8, ps)
		if parallel {
			e.SetParallel(fakePar{f})
		}
		reqs := []*Request{rd(0), rd(1), wr(2), rd(3), wr(0), rd(4)}
		e.SubmitAll(reqs...)
		e.Drain()
		for i, r := range reqs {
			if !r.Completed() {
				t.Fatalf("parallel=%v: request %d not completed", parallel, i)
			}
		}
		if parallel && e.Batches() == 0 {
			t.Fatal("no batch dispatched: the scratch was never used")
		}
		for i, q := range e.queue[:cap(e.queue)] {
			if q != nil {
				t.Errorf("parallel=%v: queue slot %d still points at a request", parallel, i)
			}
		}
		for i, q := range e.batch[:cap(e.batch)] {
			if q != nil {
				t.Errorf("parallel=%v: batch slot %d still points at a request", parallel, i)
			}
		}
		for i, a := range e.accs {
			if a.Data != nil {
				t.Errorf("parallel=%v: batch access %d still holds a payload", parallel, i)
			}
		}
	}
}
