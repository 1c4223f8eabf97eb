package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSet is one set of runs: for each workload, its runs.
type runSet map[string][]runFile

// runFile is one run's result line and the digest line before it.
type runFile struct {
	output
	name   string
	seed   int64
	digest string
}

// readRunSet reads every file <workload>_<anything>.out in dir: the last
// non-empty line of each (the run's standard output) is that run's result
// line, and its "digest <workload> <seed> <digest>" line names the seed and
// the simulated results' digest.
func readRunSet(dir string) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range entries {
		wl, _, ok := strings.Cut(e.Name(), "_")
		if e.IsDir() || !ok || !strings.HasSuffix(e.Name(), ".out") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		r := runFile{name: filepath.Join(dir, e.Name())}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			last = append(last[:0], line...)
			if f := strings.Fields(string(line)); len(f) == 4 && f[0] == "digest" && f[1] == wl {
				if r.seed, err = strconv.ParseInt(f[2], 10, 64); err != nil {
					return nil, fmt.Errorf("%s: %q: %w", e.Name(), line, err)
				}
				r.digest = f[3]
			}
		}
		if err := json.Unmarshal(last, &r.output); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", e.Name(), err)
		}
		if r.digest == "" {
			return nil, fmt.Errorf("%s: no digest line for %s", e.Name(), wl)
		}
		set[wl] = append(set[wl], r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no run files named <workload>_<anything>.out", dir)
	}
	return set, nil
}

func (s runSet) values(wl, metric string) []float64 {
	var xs []float64
	for _, o := range s[wl] {
		if m, ok := o.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// digestMismatches lists the seeds of a workload whose runs, in any of the
// sets, did not all produce the same simulated results, and counts the
// seeds that were run more than once.
func digestMismatches(sets []runSet, wl string) (bad []string, repeated int) {
	bySeed := map[int64][]runFile{}
	for _, s := range sets {
		for _, r := range s[wl] {
			bySeed[r.seed] = append(bySeed[r.seed], r)
		}
	}
	seeds := make([]int64, 0, len(bySeed))
	for seed := range bySeed {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		runs := bySeed[seed]
		if len(runs) > 1 {
			repeated++
		}
		for _, r := range runs[1:] {
			if r.digest != runs[0].digest {
				bad = append(bad, fmt.Sprintf("seed %d: %s has digest %s, %s has %s", seed, r.name, r.digest, runs[0].name, runs[0].digest))
			}
		}
	}
	return bad, repeated
}

// failedShare sums a workload's failed and attempted jobs over its runs.
func (s runSet) failedShare(wl string) (failed, attempted int, allCorrect bool) {
	allCorrect = true
	for _, o := range s[wl] {
		failed += o.Failed
		attempted += o.Attempted
		allCorrect = allCorrect && o.Correct
	}
	return failed, attempted, allCorrect
}

// Verdicts of a comparison between a base set A and a changed set B.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one metric. The spread of a set is its
// interquartile range as a share of its median. Where either set spreads
// wider than the bound the pair is unresolved, unless every run of B beats
// (or trails) every run of A. Otherwise B is worse when its median is worse
// than A's by more than the bound, better when its median is better by more
// than both sets' spreads, and unchanged in between.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	gain := (mb - ma) / ma
	if lowerIsBetter {
		gain = -gain
	}
	beats := func(x, y float64) bool { return lowerIsBetter && x < y || !lowerIsBetter && x > y }
	every := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !beats(x, y) {
					return false
				}
			}
		}
		return true
	}
	noise := max(spread(a), spread(b))
	switch {
	case noise > bound && every(b, a):
		return verdictBetter, gain
	case noise > bound && every(a, b):
		return verdictWorse, gain
	case noise > bound:
		return verdictUnresolved, gain
	case gain < -bound:
		return verdictWorse, gain
	case gain > noise:
		return verdictBetter, gain
	}
	return verdictUnchanged, gain
}

// compareMain prints each end-to-end metric's median and quartiles per
// workload for one or two sets of runs. With one set it reports whether
// every spread stays within a third of its bound; with two it gives each
// (metric, workload) pair a verdict. It exits 1 when a set has an incorrect
// run, when two runs of one workload and seed, in either set, produced
// different simulated results, when the failed share differs between the
// sets, or when a pair is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: simbench compare [-bench BENCHMARK.json] <set-dir-A> [<set-dir-B>]")
		return 2
	}
	bf, err := readBenchmarkFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	var sets []runSet
	for _, dir := range fs.Args() {
		s, err := readRunSet(dir)
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 2
		}
		sets = append(sets, s)
	}
	code := 0
	workloads := sortedKeys(sets[0])
	sort.SliceStable(workloads, func(i, j int) bool { return workloadRank(workloads[i]) < workloadRank(workloads[j]) })
	for _, wl := range workloads {
		var shares []string
		for i, s := range sets {
			failed, attempted, ok := s.failedShare(wl)
			shares = append(shares, fmt.Sprintf("%d/%d", failed, attempted))
			if !ok {
				fmt.Fprintf(stdout, "%s: set %c has a run with correct=false\n", wl, 'A'+i)
				code = 1
			}
		}
		fmt.Fprintf(stdout, "\n%s: %d runs; failed/attempted %s\n", wl, len(sets[0][wl]), strings.Join(shares, " vs "))
		bad, repeated := digestMismatches(sets, wl)
		for _, m := range bad {
			fmt.Fprintf(stdout, "  results differ: %s\n", m)
			code = 1
		}
		if len(bad) == 0 {
			fmt.Fprintf(stdout, "  results identical across the runs of each of %d seeds run more than once\n", repeated)
		}
		if len(sets) == 2 {
			fa, aa, _ := sets[0].failedShare(wl)
			fb, ab, _ := sets[1].failedShare(wl)
			if aa == 0 || ab == 0 || fa*ab != fb*aa {
				fmt.Fprintf(stdout, "  failed share differs between the sets\n")
				code = 1
			}
		}
		for _, m := range bf.EndToEnd {
			a := sets[0].values(wl, m.Name)
			if len(a) == 0 {
				fmt.Fprintf(stdout, "  %-18s missing\n", m.Name)
				code = 1
				continue
			}
			q1, q3 := quartiles(a)
			line := fmt.Sprintf("  %-18s A %12.5g [%.5g, %.5g] spread %5.1f%%", m.Name, median(a), q1, q3, 100*spread(a))
			if len(sets) == 1 {
				state := "steady"
				if spread(a) > m.Bound/3 {
					state = "NOISY"
				}
				fmt.Fprintf(stdout, "%s  bound %4.1f%%  %s\n", line, 100*m.Bound, state)
				continue
			}
			b := sets[1].values(wl, m.Name)
			if len(b) == 0 {
				fmt.Fprintf(stdout, "%s  B missing\n", line)
				code = 1
				continue
			}
			v, gain := verdict(a, b, m.Better == "lower", m.Bound)
			q1, q3 = quartiles(b)
			fmt.Fprintf(stdout, "%s | B %12.5g [%.5g, %.5g] spread %5.1f%% | %+6.1f%% (bound %4.1f%%) %s\n",
				line, median(b), q1, q3, 100*spread(b), 100*gain, 100*m.Bound, v)
			if v == verdictWorse {
				code = 1
			}
		}
	}
	return code
}

func workloadRank(name string) int {
	for i, n := range workloadNames {
		if n == name {
			return i
		}
	}
	return len(workloadNames)
}
