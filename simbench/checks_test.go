package main

import (
	"context"
	"encoding/json"
	"testing"

	"across/internal/sim"
	"across/internal/ssdconf"
)

// smallTraces are the six LUN profiles at a small scale on the scaled
// experiment device.
func smallTraces(t *testing.T) []profileTrace {
	t.Helper()
	traces, err := lunTraces(ssdconf.Experiment(), 0.01, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func agedRunner(t *testing.T, kind sim.SchemeKind) *sim.Runner {
	t.Helper()
	r, err := sim.NewRunner(kind, ssdconf.Experiment())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AgeCtx(context.Background(), sim.DefaultAging()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReplayChecksRejectADroppedRequest(t *testing.T) {
	pt := smallTraces(t)[0]
	for _, kind := range sim.Kinds() {
		res, err := agedRunner(t, kind).Replay(pt.reqs)
		if err != nil {
			t.Fatal(err)
		}
		if errs := replayChecks(kind, res, pt); len(errs) > 0 {
			t.Errorf("%s: a whole replay fails its checks: %v", kind, errs)
		}
		dropped, err := agedRunner(t, kind).Replay(pt.reqs[1:])
		if err != nil {
			t.Fatal(err)
		}
		if errs := replayChecks(kind, dropped, pt); len(errs) == 0 {
			t.Errorf("%s: a replay missing one request passes its checks", kind)
		}
	}
}

func TestAgedCheckHoldsOnRealDevicesAndRejectsOthers(t *testing.T) {
	conf := ssdconf.Experiment()
	want := agedValidPages(conf, sim.DefaultAging())
	for _, kind := range sim.Kinds() {
		_, valid, _ := agedRunner(t, kind).Scheme.Device().Array.CountStates()
		if errs := agedCheck(kind, valid, want); len(errs) > 0 {
			t.Errorf("%s: %v", kind, errs)
		}
	}
	if len(agedCheck(sim.KindFTL, want+1, want)) == 0 || len(agedCheck(sim.KindAcross, want-1, want)) == 0 {
		t.Error("a page-level scheme off the §4.1 valid set passes")
	}
	if len(agedCheck(sim.KindMRSM, want+100, want)) > 0 || len(agedCheck(sim.KindMRSM, want-1, want)) == 0 {
		t.Error("MRSM's valid set must be bounded below by §4.1's, not pinned to it")
	}
}

// The property is checked on real replays first; swapping the two schemes'
// results gives an Across-FTL with more programs than FTL, which must fail.
func TestPaperPropertyRejectsAcrossWithMorePrograms(t *testing.T) {
	traces := smallTraces(t)[:2]
	run := func(kind sim.SchemeKind) *schemeRun {
		r := agedRunner(t, kind)
		sr := &schemeRun{kind: kind}
		for _, pt := range traces {
			res, err := r.Replay(pt.reqs)
			if err != nil {
				t.Fatal(err)
			}
			sr.results = append(sr.results, res)
			sr.errs = append(sr.errs, nil)
		}
		return sr
	}
	base, across := run(sim.KindFTL), run(sim.KindAcross)
	paperProperty([]*schemeRun{base, across}, traces)
	for i, errs := range across.errs {
		if len(errs) > 0 {
			t.Fatalf("profile %s: the property fails on real replays: %v", traces[i].name, errs)
		}
	}
	swapped := &schemeRun{kind: sim.KindAcross, results: base.results, errs: make([][]string, len(traces))}
	fakeBase := &schemeRun{kind: sim.KindFTL, results: across.results}
	paperProperty([]*schemeRun{fakeBase, swapped}, traces)
	for i, errs := range swapped.errs {
		if len(errs) == 0 {
			t.Errorf("profile %s: Across-FTL with more programs than FTL passes", traces[i].name)
		}
	}
	// With one job per scheme (age-full) every failure lands on that job.
	one := &schemeRun{kind: sim.KindAcross, results: base.results, errs: make([][]string, 1)}
	paperProperty([]*schemeRun{fakeBase, one}, traces)
	if len(one.errs[0]) != 2*len(traces) {
		t.Errorf("one-job run collected %d failures, want %d", len(one.errs[0]), 2*len(traces))
	}
}

func TestDaemonChecksRejectARepeatThatReRuns(t *testing.T) {
	const schemes, jobs = 3, 36
	if errs := sweepChecks(schemes, jobs-schemes, jobs, schemes, jobs); len(errs) > 0 {
		t.Errorf("a correct sweep fails: %v", errs)
	}
	// A repeat pass that re-runs: nothing is served from the store.
	if errs := sweepChecks(schemes, jobs-schemes, 0, schemes, jobs); len(errs) == 0 {
		t.Error("a repeat pass that re-runs passes")
	}
	// A scheme that ages twice instead of forking from its checkpoint.
	if errs := sweepChecks(schemes+1, jobs-schemes-1, jobs, schemes, jobs); len(errs) != 2 {
		t.Errorf("a re-aged scheme: %v", errs)
	}

	result := json.RawMessage(`{"scheme":"FTL","requests":3}`)
	cold := &jobOutcome{result: result}
	cached := &jobOutcome{status: jobStatus{Cached: true}, result: result}
	if errs := repeatChecks(cold, cached); len(errs) > 0 {
		t.Errorf("a store hit with the same result fails: %v", errs)
	}
	rerun := &jobOutcome{result: json.RawMessage(`{"scheme":"FTL","requests":3}`)}
	if errs := repeatChecks(cold, rerun); len(errs) != 1 {
		t.Errorf("a re-run repeat: %v", errs)
	}
	changed := &jobOutcome{status: jobStatus{Cached: true}, result: json.RawMessage(`{"scheme":"FTL","requests":4}`)}
	if errs := repeatChecks(cold, changed); len(errs) != 1 {
		t.Errorf("a repeat with another result: %v", errs)
	}
}

func TestResultChecksCountTheGeneratedTrace(t *testing.T) {
	pt := smallTraces(t)[0]
	res, err := agedRunner(t, sim.KindAcross).ReplayQD(pt.reqs, daemonQD)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(resultDocOf(res))
	sp := daemonSpec{scheme: sim.KindAcross, profile: pt, qd: daemonQD}
	if errs := resultChecks(sp, good); len(errs) > 0 {
		t.Errorf("a whole replay fails: %v", errs)
	}
	doc := resultDocOf(res)
	doc.Requests--
	dropped, _ := json.Marshal(doc)
	if errs := resultChecks(sp, dropped); len(errs) == 0 {
		t.Error("a result missing one request passes")
	}
	sp.scheme = sim.KindFTL
	if errs := resultChecks(sp, good); len(errs) == 0 {
		t.Error("a result of another scheme passes")
	}
}
