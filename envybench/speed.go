package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// speedRef is the benchmark's fixed reference work: independent random
// 8-byte loads over an array far larger than any cache. It runs in
// short slices interleaved with the workload, so both see the same
// machine. On a shared host, neighbours' memory traffic can make the
// simulator's speed drift by tens of percent over seconds to minutes.
// Scaling a wall figure by the reference's speed in the same run
// removes most of that drift from comparisons between commits. The
// simulator's code never touches the reference, so a change to the
// simulator moves only the raw figure, never the scale.
//
// The array lives outside the Go heap, so it changes neither the heap
// figures nor the collector's pacing.
type speedRef struct {
	mem   []byte
	words []uint64
	x     uint64
	sink  uint64
	loads int64
	spent time.Duration
}

const (
	refBytes = 64 << 20
	// refSliceLoads is one slice of reference work, about a millisecond.
	refSliceLoads = 100_000
	// refNominalNs is the reference's time per load on a quiet 2-CPU
	// x86-64 box. Scaled figures read as if measured on that box.
	refNominalNs = 20.0
)

func newSpeedRef() (*speedRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference array: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refBytes/8)
	for i := range words { // fault every page in before any slice is timed
		words[i] = uint64(i)
	}
	return &speedRef{mem: mem, words: words, x: 1}, nil
}

// close unmaps the array.
func (r *speedRef) close() error { return syscall.Munmap(r.mem) }

// sample runs and times one slice of reference work.
func (r *speedRef) sample() {
	mask := uint64(len(r.words) - 1)
	x, acc := r.x, r.sink
	s := time.Now()
	for i := 0; i < refSliceLoads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		acc += r.words[(x>>29)&mask]
	}
	r.spent += time.Since(s)
	r.x, r.sink = x, acc
	r.loads += refSliceLoads
}

// restart forgets the slices timed so far.
func (r *speedRef) restart() { r.loads, r.spent = 0, 0 }

// nsPerLoad is the reference's mean time per load so far.
func (r *speedRef) nsPerLoad() float64 {
	return float64(r.spent.Nanoseconds()) / float64(r.loads)
}

// scale converts the aggregate wall figures in v to the nominal
// machine, keeping each raw figure per layer under a "wall." prefix: a
// time is divided by how much slower this run's machine was than the
// nominal one, a rate multiplied. Per-op latency percentiles stay raw:
// a median access is mostly cache-resident work that memory traffic
// barely slows, so scaling it by the reference overcorrects.
func (r *speedRef) scale(v map[string]float64) {
	slowdown := r.nsPerLoad() / refNominalNs
	v["ref.ns_per_load"] = r.nsPerLoad()
	for _, name := range []string{"setup_s", "recover_ms", "ops_per_s"} {
		v["wall."+name] = v[name]
	}
	v["setup_s"] /= slowdown
	v["recover_ms"] /= slowdown
	v["ops_per_s"] *= slowdown
}
