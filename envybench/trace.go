package main

import (
	"context"
	"fmt"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// spanID names a benchmark-owned span; the values index spanNames.
type spanID int

const (
	spanNew spanID = iota
	spanLoad
	spanAge
	spanWarm
	spanRun
	spanNextOp
	spanIdle
	spanAccess
	spanCheck
	spanRecover
	spanVerify
)

// tracer records spans the benchmark opens around its calls into the
// program and keeps each span's self time: its duration minus the part
// its child spans cover. A nil tracer records nothing, so the untraced
// run pays one nil check per span.
type tracer struct {
	stack []openSpan
	self  [len(spanNames)]time.Duration
}

// spanNames are the benchmark-owned spans, indexed by spanID.
var spanNames = [...]string{
	"new", "load", "age", "warm", "run", "nextop", "idle", "access",
	"check", "recover", "verify",
}

type openSpan struct {
	id    spanID
	start time.Time
	child time.Duration
}

func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{id: id, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(top.start)
	t.self[top.id] += d - top.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// phase labels the CPU samples that follow with the run's phase, so
// the profile reader can keep the measured phase alone.
func (t *tracer) phase(name string) {
	if t == nil {
		return
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", name)))
}

// values adds each span's self time, in seconds, to v.
func (t *tracer) values(v map[string]float64) {
	for i, name := range spanNames {
		v["span."+name+"_s"] = t.self[i].Seconds()
	}
}

// cpuShares reads a CPU profile with `go tool pprof -traces` and
// returns the share of the measured phase's sampled CPU time charged to
// each cpuModules entry, plus "background": the cumulative share spent
// inside the background scheduler. Recovery, verification and the
// reference kernel are left out; the wall time of the first two is in
// span.recover_s and span.verify_s.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-tagfocus=phase=measure", "-ignore=speedRef", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return sharesFromTraces(string(out))
}

// sharesFromTraces parses `pprof -traces` text: blocks separated by
// dashed lines, each its sample labels, then the sample value followed
// by its stack, innermost frame first.
func sharesFromTraces(text string) (map[string]float64, error) {
	weights := make(map[string]float64)
	var total, background float64
	var weight float64
	var stack []string
	flush := func() {
		if stack != nil {
			weights[layerOf(stack)] += weight
			total += weight
			if underScheduler(stack) {
				background += weight
			}
		}
		stack = nil
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header lines: File, Type, Duration, ...
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if stack == nil && strings.HasSuffix(fields[0], ":") {
			continue // a sample label, such as "phase:  measure"
		}
		if stack == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			weight = float64(d)
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(cpuModules)+1)
	for _, m := range cpuModules {
		shares[m] = weights[m] / total
	}
	shares["background"] = background / total
	return shares, nil
}

// underScheduler reports whether a sample ran inside the background
// scheduler: picking, running, preempting or completing background
// operations, with everything those call.
func underScheduler(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "envy/internal/sched.(*Scheduler).") {
			return true
		}
	}
	return false
}

// layerOf charges a sample to the module of its innermost envy frame,
// or to "bench" for the benchmark's own code. Runtime and standard
// library frames count toward the frame that called them; a sample
// with no envy or benchmark frame (GC workers, the scheduler) goes to
// "gc".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "gc"
}

// moduleOf returns the cpuModules entry a function belongs to, or ""
// for runtime and standard-library functions.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if strings.HasPrefix(fn, "envy.") {
		return "envy"
	}
	rest, ok := strings.CutPrefix(fn, "envy/internal/")
	if !ok {
		if strings.HasPrefix(fn, "envy/") {
			return "other"
		}
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, m := range cpuModules {
		if m == pkg {
			return m
		}
	}
	return "other"
}
