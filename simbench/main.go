// Command simbench is the simulator's end-to-end benchmark. It runs one of
// three workloads from a single process, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	simbench -workload age-full|replay-luns|daemon-fork -seed N -seconds S -trace 0|1
//	simbench compare [-bench BENCHMARK.json] <set-dir-A> [<set-dir-B>]
//
// It reaches the simulator only through the public functions of
// internal/sim and internal/workload, the acrossd service over loopback
// HTTP, and the service's result-store directory, so every layer is
// measured from outside. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart approximates the process start: package initialisation runs
// before main, so setup_s includes the runtime's own start-up.
var processStart = time.Now()

// defaultSeed is the workload seed when -seed is not given; README.md names
// the second seed the correctness checks are also run on.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured time per run; whole rounds are run until it has passed")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "simbench"), "directory for result stores, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return compareMain(fs.Args()[1:], stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "simbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "simbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "simbench: -seconds must be positive\n")
		return 2
	}
	wl, err := newWorkload(*wlName)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	b := &bench{
		workload: *wlName,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		work:     *work,
		log:      stderr,
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	out, err := b.run(wl)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %s: %v\n", *wlName, err)
		return 1
	}
	for _, name := range sortedKeys(out.Metrics) {
		m := out.Metrics[name]
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
	// The simulated results' digest, for the comparison command to check
	// that every run of a workload and seed, in any set, repeats them.
	fmt.Fprintf(stdout, "digest %s %d %s\n", *wlName, *seed, b.digest)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// output is the result line: the contract every run's last line follows.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run drives one invocation: repeated set-up, then whole rounds until the
// measured time has passed (timed run), or one plain and one traced round
// (traced run).
func (b *bench) run(wl workloadRunner) (*output, error) {
	setupStart := time.Since(processStart)
	var reps []float64
	for i := 0; i < setupReps; i++ {
		last := i == setupReps-1
		t0 := time.Now()
		if err := wl.setup(b, last); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	defer wl.close(b)
	setupS := setupStart.Seconds() + median(reps)

	if b.traced {
		return b.runTraced(wl, setupS)
	}

	t := &tally{}
	start := time.Now()
	for {
		if err := b.timedRound(wl, t); err != nil {
			return nil, err
		}
		if time.Since(start).Seconds() >= b.seconds {
			break
		}
	}
	b.checkRounds(t)
	fmt.Fprintf(b.log, "simbench: %s seed %d: %d rounds in %.2fs\n",
		b.workload, b.seed, len(t.digests), time.Since(start).Seconds())
	return &output{
		Correct:   b.correct(),
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   endToEnd(t, setupS),
	}, nil
}

// tally accumulates one run's measurements. Rates and times are kept per
// round and reported as medians over the rounds, so one round slowed by
// the machine moves a run's figures less than a mean would.
type tally struct {
	attempted int
	failed    int
	jobMs     []float64 // wall time of every job the median is taken over
	extraJobs int       // further jobs completed, counted only in jobs_per_s
	replayReq int64     // requests replayed inside the timed replay regions
	replayS   float64   // wall time of those regions

	// Per round:
	ageS       []float64 // wall time bringing devices to the aged state
	heapMB     []float64 // live heap of the aged devices, or of the service
	jobRate    []float64 // jobs completed per second of the round
	replayRate []float64 // requests per second inside replay regions
	digests    []string  // digest of every simulated result
}

// timedRound runs one round and records its per-round rates.
func (b *bench) timedRound(wl workloadRunner, t *tally) error {
	jobs0, req0, replay0 := len(t.jobMs)+t.extraJobs, t.replayReq, t.replayS
	t0 := time.Now()
	if err := wl.round(b, t); err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	jobs, reqs, replayS := len(t.jobMs)+t.extraJobs-jobs0, t.replayReq-req0, t.replayS-replay0
	t.jobRate = append(t.jobRate, float64(jobs)/wall)
	t.replayRate = append(t.replayRate, float64(reqs)/replayS)
	fmt.Fprintf(b.log, "simbench: round %d: %.2fs, %d jobs, %.0f req/s in replay, aging %.3fs\n",
		len(t.digests), wall, jobs, float64(reqs)/replayS, t.ageS[len(t.ageS)-1])
	return nil
}

func endToEnd(t *tally, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"age_s":            {median(t.ageS), "s"},
		"replay_req_per_s": {median(t.replayRate), "1/s"},
		"jobs_per_s":       {median(t.jobRate), "1/s"},
		"job_p50_ms":       {median(t.jobMs), "ms"},
		"heap_mb":          {median(t.heapMB), "MB"},
	}
}

// checkRounds requires every round of a run to have produced the same
// simulated results: the simulator is deterministic for a fixed seed. The
// digest is printed, and the comparison command holds runs of one seed to
// it across runs and sets.
func (b *bench) checkRounds(t *tally) {
	for i, d := range t.digests {
		if d != t.digests[0] {
			b.failf("round %d results digest %s differs from round 1's %s", i+1, d, t.digests[0])
		}
	}
	b.digest = t.digests[0]
}

// liveHeapMB is the live heap after forced collections. Two are needed:
// objects cached in a sync.Pool survive the first one in its victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
