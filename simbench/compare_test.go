package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same runs", steady, steady, false, verdictUnchanged},
		{"small gain within the spread", steady, scaled(1.005), false, verdictUnchanged},
		{"gain beyond the spread", steady, scaled(1.05), false, verdictBetter},
		{"loss within the bound", steady, scaled(0.95), false, verdictUnchanged},
		{"loss beyond the bound", steady, scaled(0.85), false, verdictWorse},
		{"lower is better: time fell", steady, scaled(0.95), true, verdictBetter},
		{"lower is better: time rose past the bound", steady, scaled(1.2), true, verdictWorse},
		{"spread wider than the bound", steady, noisy, false, verdictUnresolved},
		{"noisy but every run better", noisy, scaled(2), false, verdictBetter},
		{"noisy but every run worse", noisy, scaled(0.5), false, verdictWorse},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// writeSet writes one set of runs the way runset.sh lays it out: run i has
// seed i, and every run reports the given results digest.
func writeSet(t *testing.T, dir string, values map[string][]float64, failed int, digest string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for wl, xs := range values {
		for i, x := range xs {
			out := output{Correct: true, Attempted: 10, Failed: failed, Metrics: map[string]metric{}}
			for _, m := range endToEndMetrics {
				out.Metrics[m.Name] = metric{x, m.Unit}
			}
			line, _ := json.Marshal(out)
			data := fmt.Sprintf("some human-readable line\ndigest %s %d %s\n%s\n", wl, i, digest, line)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s_%d.out", wl, i)), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join("..", "BENCHMARK.json")
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	writeSet(t, filepath.Join(dir, "a"), map[string][]float64{"replay-luns": base}, 0, "d1")
	writeSet(t, filepath.Join(dir, "same"), map[string][]float64{"replay-luns": base}, 0, "d1")
	writeSet(t, filepath.Join(dir, "failing"), map[string][]float64{"replay-luns": base}, 1, "d1")
	writeSet(t, filepath.Join(dir, "other-results"), map[string][]float64{"replay-luns": base}, 0, "d2")

	var out, errb bytes.Buffer
	if code := compareMain([]string{"-bench", bench, filepath.Join(dir, "a")}, &out, &errb); code != 0 {
		t.Fatalf("one set: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "steady") {
		t.Errorf("one set: no spread verdicts in\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bench", bench, filepath.Join(dir, "a"), filepath.Join(dir, "same")}, &out, &errb); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s", code, out.String())
	}
	if strings.Count(out.String(), verdictUnchanged) != len(endToEndMetrics) {
		t.Errorf("identical sets: want every metric unchanged\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bench", bench, filepath.Join(dir, "a"), filepath.Join(dir, "failing")}, &out, &errb); code != 1 {
		t.Errorf("a set with another failed share must fail the comparison\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bench", bench, filepath.Join(dir, "a"), filepath.Join(dir, "other-results")}, &out, &errb); code != 1 ||
		strings.Count(out.String(), "results differ") != len(base) {
		t.Errorf("runs of the same seeds with other results must fail the comparison, once per seed (exit %d)\n%s", code, out.String())
	}
	// Within one set: a second run of seed 0 with other results.
	rerun, err := os.ReadFile(filepath.Join(dir, "other-results", "replay-luns_0.out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a", "replay-luns_rerun.out"), rerun, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := compareMain([]string{"-bench", bench, filepath.Join(dir, "a")}, &out, &errb); code != 1 || !strings.Contains(out.String(), "seed 0:") {
		t.Errorf("a set holding two runs of one seed with other results must fail (exit %d)\n%s", code, out.String())
	}
}
