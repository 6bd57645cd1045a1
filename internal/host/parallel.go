package host

import "envy/internal/core"

// Parallel batch dispatch: the admission/ordering half of the batched
// host service. The engine keeps its serial semantics —
// FIFO-first-eligible, reads pass blocked writes, same-page write
// fences — but instead of servicing one eligible request at a time it
// admits a batch: the first eligible request plus every later eligible
// request whose resource footprint (logical-page shards + Flash banks,
// resolved by the backend at admission) is disjoint from everything
// already admitted. The batch overlaps on the simulated clock inside
// core.ExecBatch; conflicting requests stay queued and run in a later
// batch — queueing per-resource.
//
// Determinism: batch composition is a pure function of the queue and
// the device state at admission, and ExecBatch serves and merges lanes
// in admission order — so a given submission sequence replays
// bit-identically.

// ParallelBackend is the optional backend surface the parallel service
// path needs; *core.Device implements it when built with
// Config.ParallelService.
type ParallelBackend interface {
	// Footprint resolves into f the resources an access needs, or
	// reports false when the access must take the serial path
	// (copy-on-write, open transaction, armed crash injector, invalid
	// range).
	Footprint(f *core.Footprint, addr uint64, n int, write bool) bool

	// ExecBatch services admitted requests with pairwise disjoint
	// footprints, overlapping them on the simulated clock.
	ExecBatch(batch []*core.BatchAccess)
}

// SetParallel arms the parallel batch path: the pump dispatches
// disjoint-footprint batches through pb instead of servicing requests
// one at a time. pb must be the same device as the engine's Backend.
// Depth-1 engines never batch (the single-outstanding model is already
// synchronous), so arming one is inert.
func (e *Engine) SetParallel(pb ParallelBackend) { e.par = pb }

// Batches returns the number of parallel batch dispatches, BatchedRequests
// the number of requests serviced inside them, and MaxBatch the largest
// batch dispatched.
func (e *Engine) Batches() int64         { return e.batches }
func (e *Engine) BatchedRequests() int64 { return e.batched }
func (e *Engine) MaxBatch() int          { return e.maxBatch }

// pumpParallel services the queue in batches until nothing is
// serviceable. A batch of one falls back to the serial service path,
// so isolated requests time exactly as the one-at-a-time engine.
func (e *Engine) pumpParallel() {
	for {
		batch := e.collectBatch()
		switch {
		case len(batch) == 0:
			return
		case len(batch) == 1:
			e.service(batch[0])
		default:
			e.serviceBatch(batch)
		}
		// Drop the scratch's request pointers: the engine keeps none to
		// a completed request.
		clear(batch)
	}
}

// collectBatch selects the requests to advance now: the first eligible
// request in FIFO order, extended with every later eligible request
// whose footprint is disjoint from all already collected. When the
// first eligible request has no lane footprint (it needs the serial
// path) it is returned alone; a later serial-path request ends the
// scan, so it is never starved by lane traffic batching past it.
// The batch lives in the engine's scratch, index-aligned with the
// admitted footprints in fps; pumpParallel clears it after dispatch.
func (e *Engine) collectBatch() []*Request {
	e.batch = e.batch[:0]
	for i, r := range e.queue {
		if !e.eligible(i) {
			continue
		}
		if r.Write && e.be.WriteWouldBlock(r.Addr, len(r.Data)) {
			continue
		}
		// Resolve into the next free footprint: admitted footprints
		// occupy fps[:n], a rejected candidate's slot is reused.
		n := len(e.batch)
		if len(e.fps) == n {
			e.fps = append(e.fps, &core.Footprint{})
		}
		fp := e.fps[n]
		if !e.par.Footprint(fp, r.Addr, len(r.Data), r.Write) {
			if n == 0 {
				e.batch = append(e.batch, r)
			}
			break
		}
		conflict := false
		for _, g := range e.fps[:n] {
			if !fp.Disjoint(g) {
				conflict = true
				break
			}
		}
		if conflict {
			continue // queues per-resource: a later batch picks it up
		}
		e.batch = append(e.batch, r)
	}
	return e.batch
}

// serviceBatch executes a multi-request batch on execution lanes and
// completes its requests in admission order. Every request starts at
// the batch base time: disjoint requests genuinely overlap on the
// simulated device.
func (e *Engine) serviceBatch(reqs []*Request) {
	base := e.be.Now()
	for len(e.accs) < len(reqs) {
		e.accs = append(e.accs, &core.BatchAccess{})
	}
	batch := e.accs[:len(reqs)]
	for i, r := range reqs {
		*batch[i] = core.BatchAccess{Write: r.Write, Addr: r.Addr, Data: r.Data, FP: e.fps[i]}
	}
	e.par.ExecBatch(batch)
	e.batches++
	e.batched += int64(len(reqs))
	if len(reqs) > e.maxBatch {
		e.maxBatch = len(reqs)
	}
	for i, r := range reqs {
		r.Start = base
		r.Completion = batch[i].End
		r.Err = batch[i].Err
		*batch[i] = core.BatchAccess{} // drop the request's payload
		e.finish(r)
	}
}
