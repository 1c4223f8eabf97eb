package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// runTraced is the traced run: one plain round (the untraced reference for
// the tracing overhead, which also runs the checks too costly for every
// timed run), then one round with spans, pprof phase labels and a CPU
// profile, then the independent recomputations. It prints the per-layer
// metrics of the traced round.
func (b *bench) runTraced(wl workloadRunner, setupS float64) (*output, error) {
	plain := &tally{}
	b.plainOfTraced = true
	t0 := time.Now()
	if err := b.timedRound(wl, plain); err != nil {
		return nil, err
	}
	plainS := time.Since(t0).Seconds() - b.checkS
	b.plainOfTraced = false

	traced := &tally{}
	b.spans = &spanLog{}
	b.layer = map[string]float64{}
	gc0, alloc0 := runtimeCounters()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t1 := time.Now()
	err := b.timedRound(wl, traced)
	tracedS := time.Since(t1).Seconds()
	pprof.StopCPUProfile()
	gc1, alloc1 := runtimeCounters()
	if err != nil {
		return nil, err
	}
	spans, layer := b.spans, b.layer
	b.spans, b.layer = nil, nil

	traced.digests = append(traced.digests, plain.digests...)
	b.checkRounds(traced)
	if err := wl.extraChecks(b); err != nil {
		return nil, err
	}
	if err := spans.write(b.path("spans.json")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(b.path("cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	p, err := readCPUProfile(b.path("cpu.pprof"), b.work)
	if err != nil {
		return nil, err
	}

	m := make(map[string]metric, len(perLayerMetrics))
	for _, s := range perLayerMetrics {
		m[s.Name] = metric{Unit: s.Unit}
	}
	set := func(name string, v float64) {
		s, ok := m[name]
		if !ok {
			panic("simbench: per-layer metric " + name + " is not declared")
		}
		s.Value = v
		m[name] = s
	}
	ratio := func(num, den string) float64 {
		if layer[den] == 0 {
			return 0
		}
		return layer[num] / layer[den]
	}
	for name, v := range layer {
		if _, ok := m[name]; ok {
			set(name, v)
		}
	}
	set("workload.generate_s", median(b.generateS))
	var ageS float64
	for _, name := range []string{"sim.age_s.FTL", "sim.age_s.MRSM", "sim.age_s.Across-FTL"} {
		ageS += layer[name]
	}
	if w := layer["sim.warmup_writes"]; w > 0 {
		set("sim.age_ns_per_write", ageS/w*1e9)
	}
	var replayS float64
	for _, name := range []string{"sim.replay_s.FTL", "sim.replay_s.MRSM", "sim.replay_s.Across-FTL"} {
		replayS += layer[name]
	}
	if n := layer["sim.replay_reqs"]; n > 0 {
		set("sim.replay_ns_per_req", replayS/n*1e9)
	}
	set("cache.cmt_hit_ratio", ratio("cache.cmt_hits", "cache.cmt_lookups"))
	set("ftl.waf", ratio("ftl.flash_writes", "ftl.host_pages"))

	var sampled, layers float64
	for bucket, secs := range p.split(func(s cpuSample) string { return cpuBucket(s.owner()) }) {
		set(bucket, secs)
		sampled += secs
		if namedLayer(bucket) {
			layers += secs
		}
	}
	for name, secs := range p.split(func(s cpuSample) string { return cpuFunctions[s.owner()] }) {
		set(name, secs)
	}
	set("cpu.sampled_s", sampled)
	if sampled > 0 {
		set("cpu.split_coverage", layers/sampled)
	}
	set("runtime.gc_cpu_s", gc1-gc0)
	set("runtime.alloc_mb", (alloc1-alloc0)/1e6)
	set("bench.trace_overhead_s", tracedS-plainS)

	b.logPhases(p)
	fmt.Fprintf(b.log, "simbench: traced round %.2fs, plain round %.2fs; setup %.3fs; spans and profile in %s\n",
		tracedS, plainS, setupS, b.path("*"))
	return &output{
		Correct:   b.correct(),
		Attempted: traced.attempted,
		Failed:    traced.failed,
		Metrics:   m,
	}, nil
}

// logPhases prints the traced round's CPU time by pprof phase label and
// by the package it is charged to (the ten largest).
func (b *bench) logPhases(p *cpuProfile) {
	byPhase := p.split(func(s cpuSample) string {
		if ph := s.labels["phase"]; ph != "" {
			return ph
		}
		return "(unlabelled: runtime background work)"
	})
	byPackage := p.split(func(s cpuSample) string { return packageOf(s.owner()) })
	for _, split := range []struct {
		what  string
		secs  map[string]float64
		limit int
	}{{"phase", byPhase, len(byPhase)}, {"package", byPackage, 10}} {
		names := sortedKeys(split.secs)
		sort.SliceStable(names, func(i, j int) bool { return split.secs[names[i]] > split.secs[names[j]] })
		for _, name := range names[:min(split.limit, len(names))] {
			fmt.Fprintf(b.log, "simbench: cpu by %-7s %-40s %8.3fs\n", split.what, name, split.secs[name])
		}
	}
}

// runtimeCounters reads the Go runtime's cumulative GC CPU seconds and
// allocated heap bytes.
func runtimeCounters() (gcCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocBytes
}
