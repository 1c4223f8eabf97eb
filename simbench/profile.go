package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// cpuProfile is the part of a runtime/pprof CPU profile the per-layer split
// needs: for every sample its CPU time, its call stack (innermost frame
// first, inlined frames included) and its labels. It is read through
// `go tool pprof -traces`, which ships with the toolchain that builds the
// benchmark.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	nanos  int64
	stack  []string
	labels map[string]string
}

// split sums the samples' CPU seconds by the key each is given; samples
// keyed "" are left out.
func (p *cpuProfile) split(key func(cpuSample) string) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range p.samples {
		if k := key(s); k != "" {
			out[k] += float64(s.nanos) / 1e9
		}
	}
	return out
}

// readCPUProfile has `go tool pprof` print every sample of the profile at
// path and parses its output. tmp is pprof's scratch directory.
func readCPUProfile(path, tmp string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(out)
}

// traceSeparator starts every sample in `pprof -traces` output.
const traceSeparator = "-----------+"

// parseTraces reads the output of `pprof -traces`: after a header, one
// block per sample, each opened by a separator line, holding label lines
// ("key:  value"), then a line with the sample's CPU time and its innermost
// function, then one line per caller.
func parseTraces(text []byte) (*cpuProfile, error) {
	p := &cpuProfile{}
	var cur *cpuSample
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			p.samples = append(p.samples, cpuSample{})
			cur = &p.samples[len(p.samples)-1]
			continue
		}
		f := strings.Fields(line)
		if cur == nil || len(f) == 0 {
			continue // the header, or a blank line
		}
		switch {
		case len(cur.stack) > 0:
			cur.stack = append(cur.stack, f[0])
		case strings.HasSuffix(f[0], ":") && len(f) >= 2:
			if cur.labels == nil {
				cur.labels = make(map[string]string)
			}
			cur.labels[strings.TrimSuffix(f[0], ":")] = strings.Join(f[1:], " ")
		default:
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			cur.nanos, cur.stack = int64(d), []string{f[1]}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The output may close with a separator that opens no sample.
	if n := len(p.samples); n > 0 && len(p.samples[n-1].stack) == 0 {
		p.samples = p.samples[:n-1]
	}
	for _, s := range p.samples {
		if len(s.stack) == 0 {
			return nil, errors.New("pprof -traces: a sample without a stack")
		}
	}
	if len(p.samples) == 0 {
		return nil, errors.New("pprof -traces: no samples")
	}
	return p, nil
}

// packageOf returns the import path of a symbol name such as
// "across/internal/flash.(*Array).CountStates" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// owner is the function a sample's CPU time is charged to: the innermost
// frame of the repository or the benchmark, so that the runtime and the
// standard library (allocation, JSON, flate, hashing) count in the layer
// that called them. A sample with no such frame (the runtime's background
// GC and scheduler, the HTTP server's connection reads) keeps its
// innermost frame.
func (s cpuSample) owner() string {
	for _, fn := range s.stack {
		if pkg := packageOf(fn); strings.HasPrefix(pkg, "across/") || pkg == "main" {
			return fn
		}
	}
	return s.stack[0]
}

// cpuBucket names the per-layer CPU metric a function's samples are
// charged to.
func cpuBucket(fn string) string {
	pkg := packageOf(fn)
	if b, ok := cpuBuckets[pkg]; ok {
		return b
	}
	switch {
	case pkg == "across/simbench" || pkg == "main":
		return "bench.cpu_s"
	case strings.HasPrefix(pkg, "across/"):
		return "other.cpu_s"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime.cpu_s"
	}
	return "stdlib.cpu_s"
}

// namedLayer reports whether a CPU bucket names a layer: one of the
// repository's, the benchmark's own code, or the Go runtime's work that no
// layer called (background GC, the scheduler). cpu.split_coverage is the
// share of sampled CPU in these; other.cpu_s and stdlib.cpu_s are not.
func namedLayer(bucket string) bool {
	switch bucket {
	case "bench.cpu_s", "runtime.cpu_s":
		return true
	}
	for _, b := range cpuBuckets {
		if b == bucket {
			return true
		}
	}
	return false
}
