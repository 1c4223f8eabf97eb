package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median, so one slow start-up does not move it.
const setupReps = 3

// bench is one invocation's state: its flags, the checks that failed, and,
// during a traced round, the span recorder and the per-layer accumulators.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	work     string
	log      io.Writer

	failures []string
	// digest hashes every simulated result of the run's first round.
	digest string
	// generateS is the trace-generation time of every set-up repetition.
	generateS []float64
	// checkS is the time the plain round of a traced run spent in checks
	// that timed rounds do not run.
	checkS float64

	// plainOfTraced marks the untraced round of a traced run, which also
	// runs the checks too costly for every timed run.
	plainOfTraced bool
	// spans is non-nil only during the traced round.
	spans *spanLog
	// layer accumulates per-layer values during the traced round.
	layer map[string]float64
}

type workloadRunner interface {
	// setup prepares the run's inputs; keep is false for the repetitions
	// that only measure set-up time and whose results are discarded.
	setup(b *bench, keep bool) error
	// round performs one whole round of the workload's jobs.
	round(b *bench, t *tally) error
	// extraChecks runs the traced run's independent recomputations.
	extraChecks(b *bench) error
	close(b *bench)
}

var workloadNames = []string{"age-full", "replay-luns", "daemon-fork"}

func newWorkload(name string) (workloadRunner, error) {
	switch name {
	case "age-full":
		return newAgeFull(), nil
	case "replay-luns":
		return newReplayLuns(), nil
	case "daemon-fork":
		return &daemonFork{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// failf records a failed run-level check.
func (b *bench) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	fmt.Fprintf(b.log, "simbench: CHECK FAILED: %s\n", msg)
}

// jobFailed reports a job whose own checks failed; the caller counts it in
// the run's failed jobs.
func (b *bench) jobFailed(job string, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(b.log, "simbench: JOB FAILED: %s: %s\n", job, e)
	}
}

func (b *bench) correct() bool { return len(b.failures) == 0 }

// add accumulates a per-layer value; it is a no-op outside the traced round.
func (b *bench) add(name string, v float64) {
	if b.layer != nil {
		b.layer[name] += v
	}
}

// span is one call the benchmark made into the program: its phase name,
// wall-clock bounds relative to the process start, the span that caused it
// (0 for none) and a few attributes.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Name   string            `json:"name"`
	StartS float64           `json:"start_s"`
	EndS   float64           `json:"end_s"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	spans []span
}

func (l *spanLog) write(path string) error {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// begin opens a span (traced round only) and returns its id, 0 otherwise.
func (b *bench) begin(parent int, name string, attrs ...string) int {
	if b.spans == nil {
		return 0
	}
	sp := span{ID: len(b.spans.spans) + 1, Parent: parent, Name: name, StartS: time.Since(processStart).Seconds()}
	for i := 0; i+1 < len(attrs); i += 2 {
		if sp.Attrs == nil {
			sp.Attrs = make(map[string]string)
		}
		sp.Attrs[attrs[i]] = attrs[i+1]
	}
	b.spans.spans = append(b.spans.spans, sp)
	return sp.ID
}

func (b *bench) end(id int) {
	if id > 0 {
		b.spans.spans[id-1].EndS = time.Since(processStart).Seconds()
	}
}

// call times f as one span named phase and returns its wall time in
// seconds. In the traced round f's CPU samples carry pprof labels naming
// the workload and the phase, and so do goroutines f starts.
func (b *bench) call(parent int, phase string, attrs []string, f func() error) (float64, error) {
	id := b.begin(parent, phase, attrs...)
	t0 := time.Now()
	var err error
	if b.spans != nil {
		pprof.Do(context.Background(), pprof.Labels("workload", b.workload, "phase", phase), func(context.Context) {
			err = f()
		})
	} else {
		err = f()
	}
	secs := time.Since(t0).Seconds()
	b.end(id)
	return secs, err
}

func (b *bench) path(name string) string {
	return filepath.Join(b.work, fmt.Sprintf("%s-seed%d-%s", b.workload, b.seed, name))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
