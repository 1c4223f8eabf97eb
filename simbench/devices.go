package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"across/internal/check"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// deviceWorkload drives sim directly: per round, each scheme in turn is
// built, aged per §4.1 and then replays the six Table 2 LUN profiles back to
// back, open loop, on the same device. age-full and replay-luns differ in
// geometry, trace scale and what counts as one job.
type deviceWorkload struct {
	conf  ssdconf.Config
	scale float64
	// jobPerScheme makes one scheme's build, age and replays one job
	// (age-full); otherwise each (scheme, profile) replay is a job.
	jobPerScheme bool
	// shadowCheck makes the traced run replay once more per scheme under
	// the check package. Its audits are O(device): at 128 GiB they would
	// take about 30 s of the traced run, so only the small device runs it.
	shadowCheck bool

	traces   []profileTrace
	baseHeap float64 // live heap with the traces held and no device
}

// newAgeFull is the full Table 1 device (128 GiB, 8 KB pages), where §4.1
// aging of a 16.7M-page array dominates and the LUN replays are small.
func newAgeFull() *deviceWorkload {
	return &deviceWorkload{conf: ssdconf.Table1(), scale: 0.05, jobPerScheme: true}
}

// newReplayLuns is the scaled 2 GiB experiment device replaying the full
// Table 2 request counts, where replay dominates and aging barely shows.
func newReplayLuns() *deviceWorkload {
	return &deviceWorkload{conf: ssdconf.Experiment(), scale: 1, shadowCheck: true}
}

// profileTrace is one generated LUN trace and what the benchmark counts in
// it itself, apart from the simulator.
type profileTrace struct {
	name      string
	reqs      []trace.Request
	reads     int64
	sectors   int64
	hostPages int64 // pages written by the trace's writes (the WAF base)
}

// lunTraces generates the six Table 2 profiles for a device, each scaled and
// offset by the seed.
func lunTraces(conf ssdconf.Config, scale float64, seed int64) ([]profileTrace, error) {
	var out []profileTrace
	spp := conf.SectorsPerPage()
	for _, p := range workload.LunProfiles() {
		p = p.Scale(scale)
		p.Seed += seed
		reqs, err := workload.Generate(p, conf.LogicalSectors())
		if err != nil {
			return nil, err
		}
		pt := profileTrace{name: p.Name, reqs: reqs}
		for _, r := range reqs {
			pt.sectors += int64(r.Count)
			if r.Op == trace.OpRead {
				pt.reads++
			} else {
				pt.hostPages += r.LastLPN(spp) - r.FirstLPN(spp) + 1
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// agedValidPages is the §4.1 valid set computed from the geometry alone:
// ValidFrac of the physical pages, capped at the logical capacity.
func agedValidPages(c ssdconf.Config, a sim.Aging) int64 {
	phys := int64(c.Channels*c.ChipsPerChan*c.DiesPerChip*c.PlanesPerDie*c.BlocksPerPlane) * int64(c.PagesPerBlock)
	valid := int64(float64(phys) * a.ValidFrac)
	if logical := int64(float64(phys) * (1 - c.OverProvision)); valid > logical {
		valid = logical
	}
	return valid
}

func (w *deviceWorkload) setup(b *bench, keep bool) error {
	var traces []profileTrace
	secs, err := b.call(0, "generate", nil, func() (err error) {
		traces, err = lunTraces(w.conf, w.scale, b.seed)
		return err
	})
	if err != nil {
		return err
	}
	b.generateS = append(b.generateS, secs)
	if keep {
		w.traces = traces
	}
	return nil
}

func (w *deviceWorkload) close(*bench) {}

// schemeRun is what one scheme's pass of a round produced.
type schemeRun struct {
	kind    sim.SchemeKind
	results []*sim.Result
	jobMs   []float64
	errs    [][]string // per job
}

func (w *deviceWorkload) round(b *bench, t *tally) error {
	if w.baseHeap == 0 {
		w.baseHeap = liveHeapMB()
	}
	var runs []*schemeRun
	var ageS, heapMB float64
	for _, kind := range sim.Kinds() {
		run, secs, heap, err := w.scheme(b, t, kind)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		ageS += secs
		heapMB += heap
		// Each device starts from a heap returned to the OS, as it would in
		// a fresh simulator process, so no round inherits another's pages.
		debug.FreeOSMemory()
	}
	paperProperty(runs, w.traces)
	if b.plainOfTraced {
		logPaperTable(b, runs, w.traces)
	}
	digest := newDigest()
	for _, run := range runs {
		for i, ms := range run.jobMs {
			t.attempted++
			t.jobMs = append(t.jobMs, ms)
			if len(run.errs[i]) > 0 {
				t.failed++
				b.jobFailed(fmt.Sprintf("%s job %d", run.kind, i+1), run.errs[i])
			}
		}
		for _, res := range run.results {
			digest.add(resultDocOf(res))
		}
	}
	t.ageS = append(t.ageS, ageS)
	t.heapMB = append(t.heapMB, heapMB)
	t.digests = append(t.digests, digest.sum())
	return nil
}

// scheme builds, ages and replays one scheme, returning its run, its aging
// wall time and the live heap its aged device holds.
func (w *deviceWorkload) scheme(b *bench, t *tally, kind sim.SchemeKind) (*schemeRun, float64, float64, error) {
	run := &schemeRun{kind: kind}
	job := b.begin(0, "job", "scheme", string(kind))
	var r *sim.Runner
	buildS, err := b.call(job, "build", []string{"scheme", string(kind)}, func() (err error) {
		r, err = sim.NewRunner(kind, w.conf)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	// §4.1 aging with its fixed seed, as acrossd ages: the aging work is
	// the same in every run, so age_s moves only with the simulator.
	aging := sim.DefaultAging()
	ageS, err := b.call(job, "age", []string{"scheme", string(kind)}, func() error {
		return r.AgeCtx(context.Background(), aging)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	_, valid, _ := r.Scheme.Device().Array.CountStates()
	agedErrs := agedCheck(kind, valid, agedValidPages(w.conf, aging))
	heap := liveHeapMB() - w.baseHeap
	b.add("sim.build_s", buildS)
	b.add("sim.age_s."+string(kind), ageS)
	b.add("sim.warmup_writes", float64(r.WarmupWrites()))

	jobS := buildS + ageS
	for i, pt := range w.traces {
		var res *sim.Result
		secs, err := b.call(job, "replay", []string{"scheme", string(kind), "profile", pt.name}, func() (err error) {
			res, err = r.Replay(pt.reqs)
			return err
		})
		if err != nil {
			return nil, 0, 0, err
		}
		t.replayReq += int64(len(pt.reqs))
		t.replayS += secs
		b.add("sim.replay_s."+string(kind), secs)
		b.add("sim.replay_reqs", float64(len(pt.reqs)))
		b.addResult(res, pt.hostPages)
		run.results = append(run.results, res)
		errs := replayChecks(kind, res, pt)
		if i == 0 {
			errs = append(errs, agedErrs...)
		}
		if w.jobPerScheme {
			jobS += secs
			if len(run.errs) == 0 {
				run.errs = append(run.errs, nil)
			}
			run.errs[0] = append(run.errs[0], errs...)
		} else {
			run.jobMs = append(run.jobMs, secs*1e3)
			run.errs = append(run.errs, errs)
		}
	}
	if w.jobPerScheme {
		run.jobMs = append(run.jobMs, jobS*1e3)
	}
	b.end(job)
	arr := r.Scheme.Device().Array
	b.add("flash.programs", float64(arr.TotalPrograms()))
	b.add("flash.reads", float64(arr.TotalReads()))
	b.add("flash.erases", float64(arr.TotalErases()))

	if b.plainOfTraced && w.shadowCheck {
		// One more replay under the shadow data model and the device-wide
		// audit; it runs after the measured ones, so they are unaffected.
		t0 := time.Now()
		defer func() { b.checkS += time.Since(t0).Seconds() }()
		if _, err := r.EnableChecks(check.Options{Shadow: true}); err != nil {
			return nil, 0, 0, err
		}
		if _, err := r.Replay(w.traces[0].reqs); err != nil {
			b.failf("%s: checked replay of %s: %v", kind, w.traces[0].name, err)
		} else {
			fmt.Fprintf(b.log, "simbench: %s replay of %s passed the shadow model and device audit\n", kind, w.traces[0].name)
		}
	}
	return run, ageS, heap, nil
}

// addResult accumulates a replay's per-layer counts (traced round only).
func (b *bench) addResult(res *sim.Result, hostPages int64) {
	b.add("cache.cmt_hits", float64(res.CMT.Hits))
	b.add("cache.cmt_lookups", float64(res.CMT.Lookups))
	b.add("ftl.gc_invocations", float64(res.Counters.GCInvocations))
	b.add("ftl.flash_writes", float64(res.Counters.FlashWrites()))
	b.add("ftl.host_pages", float64(hostPages))
	if res.Across != nil {
		b.add("acrossftl.areas_written", float64(res.Across.AreasTouched()))
		b.add("acrossftl.merges", float64(res.Across.ProfitableAMerge+res.Across.UnprofitableAMerge))
		b.add("acrossftl.rollbacks", float64(res.Across.Rollbacks))
	}
}

// extraChecks of the device workloads ran in the plain round (see scheme).
func (w *deviceWorkload) extraChecks(*bench) error { return nil }

// logPaperTable prints the simulated Across-FTL against FTL comparison the
// paper's property rests on: flash data programs and mean write latency per
// profile, on the same aged device and trace.
func logPaperTable(b *bench, runs []*schemeRun, traces []profileTrace) {
	byKind := map[sim.SchemeKind]*schemeRun{}
	for _, r := range runs {
		byKind[r.kind] = r
	}
	fmt.Fprintf(b.log, "simbench: table %-8s %12s %12s %8s %12s %12s\n", "profile", "FTL progs", "Across progs", "saved", "FTL wr ms", "Across wr ms")
	for i, pt := range traces {
		f, a := byKind[sim.KindFTL].results[i], byKind[sim.KindAcross].results[i]
		fmt.Fprintf(b.log, "simbench: table %-8s %12d %12d %7.1f%% %12.4f %12.4f\n", pt.name,
			f.Counters.DataWrites, a.Counters.DataWrites,
			100*(1-float64(a.Counters.DataWrites)/float64(f.Counters.DataWrites)),
			f.AvgWriteLatency(), a.AvgWriteLatency())
	}
}
