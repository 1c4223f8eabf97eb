package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"across/internal/sim"
)

// The correctness checks. Each tests a property of the method or compares
// with a count or computation the benchmark makes apart from the program;
// none compares with a stored copy of earlier output. A check returns the
// problems it found, empty when the output is correct.

// agedCheck: the aged device holds the §4.1 valid set computed from the
// geometry alone. Exact for the schemes whose aging writes whole pages; a
// lower bound for MRSM, whose sub-page mapping keeps more pages valid.
func agedCheck(kind sim.SchemeKind, valid, want int64) []string {
	if kind == sim.KindMRSM && valid < want || kind != sim.KindMRSM && valid != want {
		return []string{fmt.Sprintf("aged device holds %d valid pages, §4.1 gives %d", valid, want)}
	}
	return nil
}

// replayChecks are the properties every replay must hold: every generated
// request is replayed, and the page-level schemes' GC moves each page it
// reads.
func replayChecks(kind sim.SchemeKind, res *sim.Result, pt profileTrace) []string {
	var errs []string
	var sectors int64
	for _, m := range res.ByBucket {
		sectors += m.Sectors
	}
	if res.Requests != int64(len(pt.reqs)) || res.ReadCount != pt.reads || res.WriteCount != int64(len(pt.reqs))-pt.reads {
		errs = append(errs, fmt.Sprintf("%s: replayed %d requests (%d reads, %d writes), the trace has %d (%d reads)",
			pt.name, res.Requests, res.ReadCount, res.WriteCount, len(pt.reqs), pt.reads))
	}
	if sectors != pt.sectors {
		errs = append(errs, fmt.Sprintf("%s: replayed %d sectors, the trace has %d", pt.name, sectors, pt.sectors))
	}
	if kind != sim.KindMRSM && res.Counters.GCReads != res.Counters.GCWrites {
		errs = append(errs, fmt.Sprintf("%s: GC read %d pages but wrote %d", pt.name, res.Counters.GCReads, res.Counters.GCWrites))
	}
	return errs
}

// paperProperty checks the paper's claim on every profile: on the same aged
// device and trace, Across-FTL issues fewer flash data programs than the
// page-level FTL and has a lower mean write latency. A profile that breaks
// it fails the Across-FTL job that replayed it.
func paperProperty(runs []*schemeRun, traces []profileTrace) {
	var base, across *schemeRun
	for _, r := range runs {
		switch r.kind {
		case sim.KindFTL:
			base = r
		case sim.KindAcross:
			across = r
		}
	}
	for i, pt := range traces {
		f, a := base.results[i], across.results[i]
		var errs []string
		if a.Counters.DataWrites >= f.Counters.DataWrites {
			errs = append(errs, fmt.Sprintf("%s: Across-FTL issued %d data programs, FTL %d", pt.name, a.Counters.DataWrites, f.Counters.DataWrites))
		}
		if a.AvgWriteLatency() >= f.AvgWriteLatency() {
			errs = append(errs, fmt.Sprintf("%s: Across-FTL mean write latency %.4f ms, FTL %.4f ms", pt.name, a.AvgWriteLatency(), f.AvgWriteLatency()))
		}
		j := i
		if len(across.errs) == 1 {
			j = 0
		}
		across.errs[j] = append(across.errs[j], errs...)
	}
}

// resultChecks compares a daemon result with what the benchmark counted in
// the trace it generated for the same spec.
func resultChecks(sp daemonSpec, raw json.RawMessage) []string {
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return []string{fmt.Sprintf("decoding result: %v", err)}
	}
	pt := sp.profile
	var errs []string
	if doc.Scheme != string(sp.scheme) {
		errs = append(errs, fmt.Sprintf("result is for scheme %q", doc.Scheme))
	}
	if doc.Requests != int64(len(pt.reqs)) || doc.Reads != pt.reads {
		errs = append(errs, fmt.Sprintf("replayed %d requests (%d reads), the trace has %d (%d reads)",
			doc.Requests, doc.Reads, len(pt.reqs), pt.reads))
	}
	if sp.scheme != sim.KindMRSM && doc.Counters.GCReads != doc.Counters.GCWrites {
		errs = append(errs, fmt.Sprintf("GC read %d pages but wrote %d", doc.Counters.GCReads, doc.Counters.GCWrites))
	}
	return errs
}

// sweepChecks: on a fresh store each scheme ages once and every other cold
// job forks from its checkpoint, and a restarted service serves the whole
// repeat pass from the store.
func sweepChecks(ages, restores, cached float64, schemes, jobs int) []string {
	var errs []string
	if ages != float64(schemes) {
		errs = append(errs, fmt.Sprintf("%v snapshot ages, want one per scheme (%d)", ages, schemes))
	}
	if want := float64(jobs - schemes); restores != want {
		errs = append(errs, fmt.Sprintf("%v snapshot restores, want %v", restores, want))
	}
	if cached != float64(jobs) {
		errs = append(errs, fmt.Sprintf("%v jobs served from the store, want the whole repeat pass (%d)", cached, jobs))
	}
	return errs
}

// repeatChecks: a repeat submission is served from the store, with a result
// byte-identical to the cold pass's.
func repeatChecks(cold, repeat *jobOutcome) []string {
	var errs []string
	if !repeat.status.Cached {
		errs = append(errs, "repeat submission was not served from the store")
	}
	if !bytes.Equal(cold.result, repeat.result) {
		errs = append(errs, "repeat result differs from the cold pass")
	}
	return errs
}
