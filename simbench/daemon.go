package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"across/internal/check"
	"across/internal/service"
	"across/internal/sim"
	"across/internal/ssdconf"
)

// daemonFork runs the acrossd service inside this process on a loopback
// listener, with one job worker and a fresh result store per round. One
// closed-loop client submits the sweep below, waits for each job and
// fetches its result, then submits the same sweep again; the repeat must
// be served from the store.
type daemonFork struct {
	specs  []daemonSpec
	live   *liveService // started by the last set-up, used by round 1
	rounds int
	cold   []jobOutcome // the last round's cold pass, for extraChecks
	// baseHeap is the live heap with the specs and their traces held and
	// no service started; heap_mb is the growth over it: the service's
	// heap and the results the client fetched.
	baseHeap float64
}

// The sweep: every scheme × every Table 2 profile × {open loop, qd 32}, on
// the scaled device, aged per §4.1. Scheme-major order makes each scheme's
// first job the one that ages; the rest fork from its checkpoint.
const (
	daemonScale = 0.05
	daemonQD    = 32
	// pollInterval paces the client's status polls while a job runs.
	pollInterval = 2 * time.Millisecond
)

type daemonSpec struct {
	scheme  sim.SchemeKind
	profile profileTrace
	qd      int
	body    []byte
}

// daemonSpecs builds the sweep's submit bodies, with the traces the
// benchmark generates for the same specs to check the results against.
func daemonSpecs(seed int64) ([]daemonSpec, error) {
	traces, err := lunTraces(ssdconf.Experiment(), daemonScale, seed)
	if err != nil {
		return nil, err
	}
	var specs []daemonSpec
	for _, kind := range sim.Kinds() {
		for _, pt := range traces {
			for _, qd := range []int{0, daemonQD} {
				body, err := json.Marshal(map[string]any{
					"type": "replay", "scheme": kind, "profile": pt.name,
					"scale": daemonScale, "seed": seed, "qd": qd, "age": true,
					// The serial engine: each simulation is single-threaded.
					"workers": 1,
				})
				if err != nil {
					return nil, err
				}
				specs = append(specs, daemonSpec{scheme: kind, profile: pt, qd: qd, body: body})
			}
		}
	}
	return specs, nil
}

func (d *daemonFork) setup(b *bench, keep bool) error {
	var specs []daemonSpec
	secs, err := b.call(0, "generate", nil, func() (err error) {
		specs, err = daemonSpecs(b.seed)
		return err
	})
	if err != nil {
		return err
	}
	b.generateS = append(b.generateS, secs)
	if keep {
		d.specs = specs
		d.baseHeap = liveHeapMB()
	}
	dir := filepath.Join(b.work, fmt.Sprintf("store-seed%d-setup", b.seed))
	live, err := startService(b, dir, true)
	if err != nil {
		return err
	}
	if !keep {
		return errors.Join(live.close(), os.RemoveAll(dir))
	}
	d.live = live
	return nil
}

func (d *daemonFork) close(*bench) {
	if d.live != nil {
		d.live.close()
		os.RemoveAll(d.live.dir)
	}
}

// jobOutcome is one submission as the client saw it.
type jobOutcome struct {
	spec   daemonSpec
	ms     float64
	status jobStatus
	result json.RawMessage
	errs   []string
}

// jobStatus is the part of the service's job status the client reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Spans  []struct {
		Name    string            `json:"name"`
		StartMs float64           `json:"start_ms"`
		EndMs   float64           `json:"end_ms"`
		Attrs   map[string]string `json:"attrs"`
	} `json:"spans"`
}

func (st *jobStatus) spanMs(name string) float64 {
	var ms float64
	for _, sp := range st.Spans {
		if sp.Name == name {
			ms += sp.EndMs - sp.StartMs
		}
	}
	return ms
}

func (d *daemonFork) round(b *bench, t *tally) error {
	dir := filepath.Join(b.work, fmt.Sprintf("store-seed%d-round%d", b.seed, d.rounds))
	live := d.live
	d.live = nil
	if live == nil {
		var err error
		if live, err = startService(b, dir, true); err != nil {
			return err
		}
	}
	d.rounds++
	d.cold = nil
	defer os.RemoveAll(live.dir)

	cold := make([]jobOutcome, len(d.specs))
	for i, sp := range d.specs {
		cold[i] = live.job(b, sp)
	}
	coldCounters, err := live.counters()
	if err != nil {
		live.close()
		return err
	}
	// The repeat goes to a restarted service over the same store, so it
	// cannot be answered from the first service's in-memory job records.
	if err := live.close(); err != nil {
		return err
	}
	if live, err = startService(b, live.dir, false); err != nil {
		return err
	}
	defer live.close()
	repeat := make([]jobOutcome, len(d.specs))
	for i, sp := range d.specs {
		repeat[i] = live.job(b, sp)
	}
	repeatCounters, err := live.counters()
	if err != nil {
		return err
	}
	// The service's live heap with the repeat pass's service open, over the
	// heap the benchmark's own specs and traces hold.
	heap := liveHeapMB() - d.baseHeap

	// Each scheme ages once; every other cold job forks from a checkpoint;
	// the whole repeat pass is served from the store.
	ages, restores, cached := coldCounters["acrossd_snapshot_ages_total"], coldCounters["acrossd_snapshot_restores_total"], repeatCounters["acrossd_jobs_cached_total"]
	for _, e := range sweepChecks(ages, restores, cached, len(sim.Kinds()), len(d.specs)) {
		b.failf("round %d: %s", d.rounds, e)
	}
	digest := newDigest()
	var ageS float64
	for i := range cold {
		c, r := &cold[i], &repeat[i]
		if c.status.State == "succeeded" {
			c.errs = append(c.errs, resultChecks(c.spec, c.result)...)
		}
		r.errs = append(r.errs, repeatChecks(c, r)...)
		digest.add(c.result)
		ageS += (c.status.spanMs("age") + c.status.spanMs("restore")) / 1e3
		t.replayReq += int64(len(c.spec.profile.reqs))
		t.replayS += c.status.spanMs("replay") / 1e3
		if b.layer != nil {
			b.addJobLayers(c)
		}
	}
	for _, o := range append(cold, repeat...) {
		t.attempted++
		if len(o.errs) > 0 {
			t.failed++
			b.jobFailed(fmt.Sprintf("%s %s qd%d", o.spec.scheme, o.spec.profile.name, o.spec.qd), o.errs)
		}
	}
	// A job is one spec from submit to fetched result; the median is taken
	// over the cold pass, the jobs that simulate, because the repeat pass's
	// store hits are much shorter and would split the median between two
	// clusters.
	for _, o := range cold {
		t.jobMs = append(t.jobMs, o.ms)
	}
	t.extraJobs += len(repeat)
	t.ageS = append(t.ageS, ageS)
	t.heapMB = append(t.heapMB, heap)
	t.digests = append(t.digests, digest.sum())
	if b.layer != nil {
		b.add("service.snapshot_ages", ages)
		b.add("service.snapshot_restores", restores)
		b.add("service.jobs_cached", cached)
		if err := b.addStoreLayers(live.dir, cold); err != nil {
			return err
		}
	}
	d.cold = cold
	return nil
}

// addJobLayers accumulates a cold job's span times and result counts
// (traced round only).
func (b *bench) addJobLayers(o *jobOutcome) {
	var spansMs float64
	for _, name := range []string{"queued", "generate", "age", "restore", "replay", "store"} {
		ms := o.status.spanMs(name)
		spansMs += ms
		b.add("service."+name+"_s", ms/1e3)
	}
	b.add("service.client_s", (o.ms-spansMs)/1e3)
	var doc resultDoc
	if json.Unmarshal(o.result, &doc) == nil {
		b.add("flash.programs", float64(doc.Counters.FlashWrites()))
		b.add("flash.reads", float64(doc.Counters.FlashReads()))
		b.add("flash.erases", float64(doc.Counters.Erases))
		b.add("ftl.gc_invocations", float64(doc.Counters.GCInvocations))
		b.add("ftl.flash_writes", float64(doc.Counters.FlashWrites()))
		b.add("ftl.host_pages", float64(o.spec.profile.hostPages))
		b.add("acrossftl.areas_written", float64(doc.AcrossAreas))
	}
}

// addStoreLayers measures the result-store directory: its size and entry
// count, and the size of the aging checkpoints the cold jobs name.
func (b *bench) addStoreLayers(dir string, cold []jobOutcome) error {
	snapKeys := map[string]bool{}
	for _, o := range cold {
		for _, sp := range o.status.Spans {
			if k := sp.Attrs["aging_key"]; k != "" {
				snapKeys[k] = true
			}
		}
	}
	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		mb := float64(info.Size()) / 1e6
		b.add("store.mb", mb)
		b.add("store.entries", 1)
		if snapKeys[strings.TrimSuffix(e.Name(), ".json")] {
			b.add("snapshot.mb", mb)
		}
		return nil
	})
}

// extraChecks recomputes every cold result of the last round directly with
// sim — build, §4.1 aging, ReplayQD — outside the service, store and
// snapshot layers, and requires it to equal the daemon's field for field.
// The first job of each scheme also replays under the check package's
// shadow model and device audit.
func (d *daemonFork) extraChecks(b *bench) error {
	checked := map[sim.SchemeKind]bool{}
	for _, o := range d.cold {
		var got resultDoc
		if err := json.Unmarshal(o.result, &got); err != nil {
			b.failf("decoding daemon result: %v", err)
			continue
		}
		r, err := sim.NewRunner(o.spec.scheme, ssdconf.Experiment())
		if err != nil {
			return err
		}
		if err := r.AgeCtx(context.Background(), sim.DefaultAging()); err != nil {
			return err
		}
		if !checked[o.spec.scheme] {
			checked[o.spec.scheme] = true
			if _, err := r.EnableChecks(check.Options{Shadow: true}); err != nil {
				return err
			}
		}
		res, err := r.ReplayQD(o.spec.profile.reqs, o.spec.qd)
		if err != nil {
			b.failf("%s %s qd%d: direct replay: %v", o.spec.scheme, o.spec.profile.name, o.spec.qd, err)
			continue
		}
		if want := resultDocOf(res); got != want {
			b.failf("%s %s qd%d: daemon result differs from the direct computation:\n daemon %+v\n direct %+v",
				o.spec.scheme, o.spec.profile.name, o.spec.qd, got, want)
		}
	}
	fmt.Fprintf(b.log, "simbench: %d daemon results recomputed directly with sim; %d replays passed the shadow model and device audit\n",
		len(d.cold), len(checked))
	return nil
}

// liveService is one acrossd service on a loopback listener and the
// one-connection client that drives it.
type liveService struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	client *http.Client
}

// startService opens the store in dir (emptied first when fresh) and
// serves the service on 127.0.0.1. In the traced round the service's
// goroutines carry the "service" phase label.
func startService(b *bench, dir string, fresh bool) (*liveService, error) {
	if fresh {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	var l *liveService
	_, err := b.call(0, "service", nil, func() error {
		srv, err := service.New(service.Config{StoreDir: dir, Workers: 1})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		l = &liveService{
			srv:    srv,
			hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
			served: make(chan error, 1),
			dir:    dir,
			base:   "http://" + ln.Addr().String(),
			client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		}
		go func() { l.served <- l.hs.Serve(ln) }()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := l.get("/healthz", &h); err != nil || h.Status != "ok" {
		l.close()
		return nil, fmt.Errorf("service not healthy (%q): %v", h.Status, err)
	}
	return l, nil
}

// close stops the listener and the worker pool and waits for both; the
// store directory stays.
func (l *liveService) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	l.client.CloseIdleConnections()
	l.srv.Close()
	return err
}

// job submits one spec, polls its status until it ends and fetches its
// result: one closed-loop job as a client sees it.
func (l *liveService) job(b *bench, sp daemonSpec) jobOutcome {
	o := jobOutcome{spec: sp}
	jobSpan := b.begin(0, "job", "scheme", string(sp.scheme), "profile", sp.profile.name, "qd", strconv.Itoa(sp.qd))
	defer b.end(jobSpan)
	t0 := time.Now()
	_, err := b.call(jobSpan, "submit", nil, func() error {
		return l.do(http.MethodPost, "/api/v1/jobs", sp.body, &o.status)
	})
	if err == nil {
		_, err = b.call(jobSpan, "poll", nil, func() error {
			for o.status.State == "queued" || o.status.State == "running" {
				time.Sleep(pollInterval)
				if err := l.get("/api/v1/jobs/"+o.status.ID, &o.status); err != nil {
					return err
				}
			}
			if o.status.State != "succeeded" {
				return fmt.Errorf("job %s %s: %s", o.status.ID, o.status.State, o.status.Error)
			}
			return nil
		})
	}
	if err == nil {
		_, err = b.call(jobSpan, "fetch", nil, func() error {
			var res struct {
				Result json.RawMessage `json:"result"`
			}
			err := l.get("/api/v1/jobs/"+o.status.ID+"/result", &res)
			o.result = res.Result
			return err
		})
	}
	o.ms = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		o.errs = append(o.errs, err.Error())
	}
	return o
}

func (l *liveService) get(path string, v any) error {
	return l.do(http.MethodGet, path, nil, v)
}

func (l *liveService) do(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// counters scrapes the service's Prometheus counters.
func (l *liveService) counters() (map[string]float64, error) {
	resp, err := l.client.Get(l.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
