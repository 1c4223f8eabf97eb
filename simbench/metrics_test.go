package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// BENCHMARK.json must name exactly the metrics the command emits, with the
// same units, in both modes.
func TestBenchmarkJSONNamesTheEmittedMetrics(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	emitted := endToEnd(&tally{jobMs: []float64{1}, ageS: []float64{1}, heapMB: []float64{1}, jobRate: []float64{1}, replayRate: []float64{1}}, 1)
	if len(emitted) != len(endToEndMetrics) || len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("emitted %d end-to-end metrics, declared %d, BENCHMARK.json has %d", len(emitted), len(endToEndMetrics), len(bf.EndToEnd))
	}
	for i, m := range endToEndMetrics {
		if got := emitted[m.Name]; got.Unit != m.Unit {
			t.Errorf("%s: emitted unit %q, declared %q", m.Name, got.Unit, m.Unit)
		}
		if e := bf.EndToEnd[i]; e.Name != m.Name || e.Unit != m.Unit {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %s %s, the command emits %s %s", i, e.Name, e.Unit, m.Name, m.Unit)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the traced run emits %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	declared := map[string]bool{}
	for i, m := range perLayerMetrics {
		declared[m.Name] = true
		if e := bf.PerLayer[i]; e.Name != m.Name || e.Unit != m.Unit {
			t.Errorf("BENCHMARK.json per_layer[%d] = %s %s, the traced run emits %s %s", i, e.Name, e.Unit, m.Name, m.Unit)
		}
	}
	// Every CPU bucket the profile split can produce is a declared metric.
	buckets := []string{"bench.cpu_s", "other.cpu_s", "runtime.cpu_s", "stdlib.cpu_s"}
	for _, b := range cpuBuckets {
		buckets = append(buckets, b)
	}
	for _, f := range cpuFunctions {
		buckets = append(buckets, f)
	}
	for _, b := range buckets {
		if !declared[b] {
			t.Errorf("CPU bucket %s is not a declared per-layer metric", b)
		}
	}
}

func TestCPUBuckets(t *testing.T) {
	cases := map[string]string{
		"across/internal/flash.(*Array).CountStates":  "flash.cpu_s",
		"across/internal/sim.(*Runner).AgeCtx.func1":  "sim.cpu_s",
		"across/internal/jobs.(*Scheduler).worker":    "service.cpu_s",
		"across/internal/trace.Request.End":           "other.cpu_s",
		"runtime.mallocgc":                            "runtime.cpu_s",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime.cpu_s",
		"compress/flate.(*decompressor).huffmanBlock": "stdlib.cpu_s",
		"encoding/json.(*encodeState).marshal":        "stdlib.cpu_s",
		"main.main":                                   "bench.cpu_s",
		"across/simbench.(*deviceWorkload).round":     "bench.cpu_s",
		"across/internal/mapping.(*PMT).AIdxOf":       "mapping.cpu_s",
		"across/internal/store.(*Store).Put":          "store.cpu_s",
		"across/internal/stats.(*Histogram).Add":      "stats.cpu_s",
	}
	for fn, want := range cases {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %s, want %s", fn, got, want)
		}
	}
}

// spinFor keeps a CPU busy in its own frame for d, looking at the clock
// only every million steps.
//
//go:noinline
func spinFor(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// A CPU profile written by runtime/pprof reads back through go tool pprof
// with its samples' labels, and its time is charged to the busy function.
func TestReadCPUProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to run pprof")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "spin"), func(context.Context) {
		spinFor(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := readCPUProfile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	labelled := p.split(func(s cpuSample) string { return s.labels["phase"] })
	total := p.split(func(cpuSample) string { return "all" })
	if labelled["spin"] < 0.5*total["all"] {
		t.Errorf("labelled samples %.2fs of %.2fs", labelled["spin"], total["all"])
	}
	funcs := p.split(func(s cpuSample) string { return s.owner() })
	if funcs["across/simbench.spinFor"] < 0.5*total["all"] {
		t.Errorf("time not charged to the busy loop: %v", funcs)
	}
	if _, err := readCPUProfile(filepath.Join(dir, "missing.pprof"), dir); err == nil {
		t.Error("a missing profile reads")
	}
}

// pprof -traces output is parsed into samples, and each sample's time is
// charged to its innermost repository frame, or to its innermost frame
// where the stack has none.
func TestParseTracesChargesTheInnermostRepositoryFrame(t *testing.T) {
	text := `File: simbench
Type: cpu
Duration: 9.89s, Total samples = 10.47s (105.91%)
-----------+-------------------------------------------------------
     phase:  service
  workload:  daemon-fork
      10ms   across/internal/trace.Request.FirstLPN (inline)
             across/internal/ftl.(*Base).Split
             across/internal/ftl.(*Baseline).Write
-----------+-------------------------------------------------------
     phase:  service
     1.20s   encoding/json.(*encodeState).marshal
             across/internal/store.(*Store).Put
             across/internal/service.(*Server).runReplay
-----------+-------------------------------------------------------
      30ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             across/internal/flash.(*Array).CountStates
-----------+-------------------------------------------------------
      40ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   compress/flate.(*decompressor).huffmanBlock
             net/http.(*conn).serve
-----------+-------------------------------------------------------
`
	p, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 5 {
		t.Fatalf("%d samples, want 5", len(p.samples))
	}
	if s := p.samples[0]; s.nanos != 10e6 || s.labels["phase"] != "service" || s.labels["workload"] != "daemon-fork" || len(s.stack) != 3 {
		t.Errorf("first sample %+v", s)
	}
	want := map[string]float64{
		"other.cpu_s":   0.01,
		"store.cpu_s":   1.2,
		"flash.cpu_s":   0.03,
		"runtime.cpu_s": 0.04,
		"stdlib.cpu_s":  0.05,
	}
	got := p.split(func(s cpuSample) string { return cpuBucket(s.owner()) })
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g (all: %v)", k, got[k], v, got)
		}
	}
	funcs := p.split(func(s cpuSample) string { return cpuFunctions[s.owner()] })
	if math.Abs(funcs["flash.CountStates.cpu_s"]-0.03) > 1e-9 {
		t.Errorf("CountStates charged %v", funcs)
	}
	for _, bad := range []string{"", "-----------+---\n   phase:  x\n", "-----------+---\n  soon   fn\n"} {
		if _, err := parseTraces([]byte(bad)); err == nil {
			t.Errorf("%q parses", bad)
		}
	}
}
