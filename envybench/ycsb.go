package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"envy"
	"envy/internal/sim"
	"envy/internal/workload"
)

// ycsbSpec sizes the library-path workload: synchronous envy.Device
// reads and writes in a YCSB-B mix from one host that idles an
// exponential gap before each access (a closed loop with think time).
type ycsbSpec struct {
	pages       int     // preloaded pages the Zipfian draws from
	theta       float64 // Zipfian skew
	accessBytes int     // bytes per Read/Write
	rate        float64 // 1/mean idle gap: the offered rate were service instant
	warmOps     int     // accesses before the measured phase
	cycles      int     // crash/recover cycles, one after each measured segment

	// opsPerSecond is how many measured accesses one --seconds buys,
	// sized like tpcaSpec.roundsPerSecond.
	opsPerSecond int
}

func ycsbB() ycsbSpec {
	return ycsbSpec{
		pages:        24_000,
		theta:        0.99,
		accessBytes:  64,
		rate:         200_000,
		warmOps:      200_000,
		cycles:       16,
		opsPerSecond: 480_000,
	}
}

func (s ycsbSpec) sizes() map[string]any {
	cfg := envy.SmallConfig()
	return map[string]any{
		"config": "envy.SmallConfig", "segments": cfg.Segments, "pages_per_segment": cfg.PagesPerSegment,
		"page_bytes": cfg.PageSize, "banks": cfg.Banks, "buffer_pages": cfg.BufferPages,
		"preloaded_pages": s.pages, "zipf_theta": s.theta, "read_frac": 0.95,
		"access_bytes": s.accessBytes, "offered_ops_per_sim_s": s.rate, "warm_ops": s.warmOps,
		"recover_cycles": s.cycles, "ops_per_second": s.opsPerSecond,
	}
}

const ycsbGapSalt = 0x5943534221

// ycsbRun is one preloaded device with its generator and the model of
// every slot's current contents. A slot is one accessBytes-sized,
// aligned piece of a page; writes bump its version, and its contents
// are a pure function of (slot, version).
type ycsbRun struct {
	spec  ycsbSpec
	dev   *envy.Device
	mix   *workload.Mix
	rng   *sim.RNG
	gap   sim.Duration // mean idle gap before each access
	slots int          // slots per page

	version []uint32
	written []int32 // slots written at least once, in first-write order

	buf, want []byte
	lat       nsHist
	measured  bool // record into lat and the measured totals
	out       *outcome
}

func setupYCSB(spec ycsbSpec, seed uint64, tr *tracer) (instance, error) {
	tr.begin(spanNew)
	cfg := envy.SmallConfig()
	dev, err := envy.New(cfg)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("envy.New: %w", err)
	}
	mix, err := workload.YCSB("b", spec.pages, spec.theta, seed)
	if err != nil {
		return nil, err
	}
	slots := cfg.PageSize / spec.accessBytes
	r := &ycsbRun{
		spec: spec, dev: dev, mix: mix,
		rng:     sim.NewRNG(seed ^ ycsbGapSalt),
		gap:     sim.Duration(1e9 / spec.rate),
		slots:   slots,
		version: make([]uint32, spec.pages*slots),
		buf:     make([]byte, spec.accessBytes),
		want:    make([]byte, spec.accessBytes),
		out:     newOutcome(),
	}
	tr.begin(spanLoad)
	page := make([]byte, cfg.PageSize)
	for p := 0; p < spec.pages; p++ {
		for s := 0; s < slots; s++ {
			fillSlot(page[s*spec.accessBytes:(s+1)*spec.accessBytes], p*slots+s, 0)
		}
		if err := dev.Preload(page, uint64(p)*uint64(cfg.PageSize)); err != nil {
			tr.end()
			return nil, fmt.Errorf("Preload page %d: %w", p, err)
		}
	}
	tr.end()
	tr.begin(spanWarm)
	defer tr.end()
	for i := 0; i < spec.warmOps; i++ {
		r.step(tr)
	}
	if r.out.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", r.out.failures[0])
	}
	return r, nil
}

// fillSlot writes the contents a slot holds at a version.
func fillSlot(p []byte, slot int, version uint32) {
	x := uint64(slot)<<32 | uint64(version)
	for i := 0; i+8 <= len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		binary.LittleEndian.PutUint64(p[i:], z^(z>>27))
	}
}

// step issues one access: the host idles for an exponential gap, then
// issues the next operation of the mix. Reads are checked against the
// model.
func (r *ycsbRun) step(tr *tracer) {
	tr.begin(spanNextOp)
	op := r.mix.NextOp()
	s := r.rng.Intn(r.slots)
	gap := time.Duration(r.rng.Exp(r.gap))
	tr.end()

	tr.begin(spanIdle)
	r.dev.Idle(gap)
	tr.end()

	slot := int(op.Page)*r.slots + s
	addr := uint64(slot) * uint64(r.spec.accessBytes)
	if op.Write {
		fillSlot(r.buf, slot, r.version[slot]+1)
	}
	tr.begin(spanAccess)
	start := time.Now()
	var err error
	if op.Write {
		_, err = r.dev.WriteErr(r.buf, addr)
	} else {
		_, err = r.dev.ReadErr(r.buf, addr)
	}
	w := time.Since(start)
	tr.end()
	if r.measured {
		r.lat.add(w.Nanoseconds())
	}
	if err != nil {
		r.out.fail("access to slot %d: %v", slot, err)
		return
	}
	if op.Write {
		if r.version[slot] == 0 {
			r.written = append(r.written, int32(slot))
		}
		r.version[slot]++
		return
	}
	tr.begin(spanCheck)
	fillSlot(r.want, slot, r.version[slot])
	if !bytes.Equal(r.buf, r.want) {
		r.out.fail("read of slot %d returned stale or torn data", slot)
	}
	tr.end()
}

// ycsbRefEvery is how many measured accesses run between two slices of
// reference work.
const ycsbRefEvery = 32768

func (r *ycsbRun) measure(seconds int, tr *tracer, ref *speedRef) (*outcome, error) {
	out := r.out
	t := &out.sim
	perCycle := seconds * r.spec.opsPerSecond / r.spec.cycles
	cd := r.dev.Core()
	var mem memMeter
	var recs []float64
	r.measured = true
	for c := 0; c < r.spec.cycles; c++ {
		tr.phase("measure")
		r.dev.ResetStats()
		t.begin(cd)
		mem.start()
		start, refStart := time.Now(), ref.spent
		for i := 0; i < perCycle; i++ {
			if i%ycsbRefEvery == 0 {
				ref.sample()
			}
			r.step(tr)
		}
		out.wall += time.Since(start) - (ref.spent - refStart)
		mem.stop()
		t.absorb(cd)
		t.ops += int64(perCycle)

		r.dev.CrashPowerCycle()
		var rep envy.RecoveryReport
		ms, err := timedRecover(tr, func() (err error) {
			rep, err = r.dev.Recover()
			return err
		})
		recs = append(recs, ms)
		out.attempted++
		if err != nil {
			out.fail("Recover: %v", err)
			break
		}
		t.discarded += rep.FlushesDiscarded
		t.quarantined += rep.TornQuarantined
		t.orphans += rep.Orphans
		r.verify(tr)
	}
	r.measured = false
	out.attempted += t.ops
	mem.report(out, t.ops)
	out.opLatency(&r.lat)
	out.values["recover_ms"] = median(recs)
	t.values(out.values)
	// No transactions on this path.
	out.values["tpca.reads_per_txn"] = 0
	out.values["tpca.writes_per_txn"] = 0
	return out, nil
}

// verify reads back every slot ever written after a recovery: each
// acknowledged write must be there, and the device must be consistent.
func (r *ycsbRun) verify(tr *tracer) {
	tr.phase("verify")
	tr.begin(spanVerify)
	defer tr.end()
	out := r.out
	for _, s := range r.written {
		slot := int(s)
		out.attempted++
		if _, err := r.dev.ReadErr(r.buf, uint64(slot)*uint64(r.spec.accessBytes)); err != nil {
			out.fail("read-back of slot %d: %v", slot, err)
			continue
		}
		fillSlot(r.want, slot, r.version[slot])
		if !bytes.Equal(r.buf, r.want) {
			out.fail("slot %d lost its acknowledged write %d across a crash", slot, r.version[slot])
		}
	}
	out.attempted++
	if err := r.dev.CheckConsistency(); err != nil {
		out.fail("CheckConsistency: %v", err)
	}
}
