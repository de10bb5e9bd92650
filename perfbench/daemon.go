package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chipletqc/internal/campaign"
	"chipletqc/internal/daemon"
	"chipletqc/internal/experiment"
	"chipletqc/internal/generate"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
)

// daemonGrid is the campaign the service workload submits: genyield
// over 4 topologies x 4 sigmas x 3 threshold scales = 48 cells.
const (
	daemonGrid  = "topos=hex-3x3-q16,square-3x3-q16,heavy-hex-2x2-q20,stack3d-2x2x3-q9;sigmas=0.006,0.010,0.014,0.018;thresholds=0.5,1,2"
	daemonCells = 48
	// warmPerCycle identical re-submits follow each cold job, so a run
	// holds well over the 200 warm samples a p95 with ten samples beyond
	// it needs.
	warmPerCycle = 200
)

// jobSample is one daemon job as the client saw it, with the server's
// own timestamps.
type jobSample struct {
	cold                         bool
	sent, returned               time.Time // client: before Submit, after Watch
	submitted, started, finished time.Time // JobStatus timestamps
}

func (j jobSample) latency() float64 { return j.returned.Sub(j.sent).Seconds() }

// daemonCampaign drives an in-process campaign daemon over a
// filesystem store in a fresh directory. One op is a cycle: start the
// service, submit the plan cold (every cell executes and is written),
// fetch every artifact, re-submit the identical plan warmPerCycle times
// in a closed loop with one client (every cell is read back), stop.
type daemonCampaign struct {
	seed    int64
	workers int
	root    string
	tmp     string
	plan    campaign.Plan
}

func (w *daemonCampaign) setup(ctx context.Context) error {
	baseName, axes, err := generate.ParseAxesSpec(daemonGrid)
	if err != nil {
		return err
	}
	base, err := scenario.Lookup(baseName)
	if err != nil {
		return err
	}
	gens, err := generate.Scenarios(base, axes)
	if err != nil {
		return err
	}
	names, err := generate.Ensure(gens)
	if err != nil {
		return err
	}
	w.plan = campaign.Plan{Experiments: []string{experiment.GenYieldName}, Scenarios: names, Seed: w.seed}
	cells, err := campaign.Expand(w.plan)
	if err != nil {
		return err
	}
	if len(cells) != daemonCells {
		return fmt.Errorf("plan expands to %d cells, want %d", len(cells), daemonCells)
	}
	w.tmp = filepath.Join(w.root, buildDir, "tmp")
	if err := os.MkdirAll(w.tmp, 0o755); err != nil {
		return err
	}
	// The service must come up before the first op can be issued.
	sv, err := w.start(ctx, nil)
	if err != nil {
		return err
	}
	return sv.stop()
}

// service is one running daemon with its store and client.
type service struct {
	dir    string
	fs     *store.FS
	ts     *timingStore // nil on untraced cycles
	cancel context.CancelFunc
	served chan error
	client *daemon.Client
	tr     *http.Transport
}

func (w *daemonCampaign) start(ctx context.Context, s *scope) (*service, error) {
	dir, err := os.MkdirTemp(w.tmp, "store-")
	if err != nil {
		return nil, err
	}
	fs, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var st store.Store = fs
	var ts *timingStore
	if s != nil {
		ts = &timingStore{Store: fs, s: *s, sizes: map[string]float64{}}
		ts.parent.Store(int64(s.id))
		st = ts
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := daemon.New(daemon.Options{Store: st, Workers: w.workers})
	sctx, cancel := context.WithCancel(ctx)
	sv := &service{dir: dir, fs: fs, ts: ts, cancel: cancel, served: make(chan error, 1), tr: &http.Transport{}}
	go func() { sv.served <- srv.Serve(sctx, l) }()
	sv.client = daemon.NewClient("http://" + l.Addr().String())
	sv.client.HTTPClient = &http.Client{Transport: sv.tr}
	if _, err := sv.client.Status(ctx); err != nil {
		return nil, errors.Join(err, sv.stop())
	}
	return sv, nil
}

// stop drains the daemon, waits for it to exit, closes the store and
// removes its directory.
func (sv *service) stop() error {
	sv.cancel()
	err := <-sv.served
	sv.tr.CloseIdleConnections()
	return errors.Join(err, sv.fs.Close(), os.RemoveAll(sv.dir))
}

func (w *daemonCampaign) op(ctx context.Context, s *scope) (out opOut, err error) {
	sv, err := w.start(ctx, s)
	if err != nil {
		return out, err
	}
	defer func() { err = errors.Join(err, sv.stop()) }()

	if s != nil {
		c := s.child("campaign.expand")
		_, err := campaign.Expand(w.plan)
		c.done()
		if err != nil {
			return out, err
		}
	}
	cold, cells, err := w.job(ctx, s, sv, true)
	if err != nil {
		return out, err
	}
	out.jobs = append(out.jobs, cold.sample)
	out.attempted++
	d := newDigester()
	var fetch scope
	if s != nil {
		fetch = s.child("daemon.fetch")
		sv.ts.parent.Store(int64(fetch.id))
	}
	for _, c := range cells {
		a, ok, err := sv.client.Artifact(ctx, c.Experiment, c.Fingerprint)
		if err != nil {
			return out, err
		}
		if !ok || a.Payload == nil || len(a.Payload.Rows) == 0 {
			cold.wrong = true
			continue
		}
		if err := d.add(a); err != nil {
			return out, err
		}
		out.trials += a.Trials
	}
	if s != nil {
		fetch.done()
		sv.ts.parent.Store(int64(s.id))
	}
	if cold.wrong {
		out.failed++
	}
	out.digest = d.sum()
	out.trialWall = cold.sample.latency()

	var liveBefore uint64
	if s != nil {
		liveBefore = liveHeapAfterGC()
	}
	for i := 0; i < warmPerCycle; i++ {
		warm, _, err := w.job(ctx, s, sv, false)
		if err != nil {
			return out, err
		}
		out.jobs = append(out.jobs, warm.sample)
		out.attempted++
		if warm.wrong {
			out.failed++
		}
	}
	if s != nil {
		grown := float64(liveHeapAfterGC()) - float64(liveBefore)
		s.t.add("daemon.heap_growth_bytes", grown)
		s.t.add("daemon.heap_jobs", warmPerCycle)
	}
	return out, nil
}

// jobResult is one finished job and whether its counts were wrong.
type jobResult struct {
	sample jobSample
	wrong  bool
}

// job submits the plan and watches it to its terminal status. A cold
// job must execute every cell; a warm one must serve every cell from
// the store.
func (w *daemonCampaign) job(ctx context.Context, s *scope, sv *service, cold bool) (jobResult, []daemon.CellStatus, error) {
	var r jobResult
	if s != nil {
		js := s.child("daemon.job")
		sv.ts.parent.Store(int64(js.id))
		defer func() {
			js.done()
			sv.ts.parent.Store(int64(s.id))
		}()
	}
	r.sample.cold = cold
	r.sample.sent = time.Now()
	st, err := sv.client.Submit(ctx, w.plan, false)
	if err != nil {
		return r, nil, err
	}
	final, err := sv.client.Watch(ctx, st.ID, nil)
	r.sample.returned = time.Now()
	if err != nil {
		return r, nil, err
	}
	r.sample.submitted, r.sample.started, r.sample.finished = final.SubmittedAt, final.StartedAt, final.FinishedAt
	wantExec, wantCached := 0, daemonCells
	if cold {
		wantExec, wantCached = daemonCells, 0
	}
	r.wrong = final.State != daemon.StateDone || final.Executed != wantExec || final.Cached != wantCached ||
		final.Errors != 0 || len(st.Cells) != daemonCells
	if s != nil {
		s.t.add("campaign.cells_executed", float64(final.Executed))
		s.t.add("campaign.cells_cached", float64(final.Cached))
	}
	return r, st.Cells, nil
}

// timingStore is a store.Store decorator that records a span around
// every Put, Get and Has the daemon makes, with call and byte counts.
// Spans nest under the job in flight (the client runs one at a time).
type timingStore struct {
	store.Store
	s      scope
	parent atomic.Int64

	mu    sync.Mutex
	sizes map[string]float64 // record bytes written by Put, by key
}

func (t *timingStore) span(name string) scope {
	return scope{t: t.s.t, op: t.s.op, id: t.s.t.begin(name, t.s.op, int(t.parent.Load()))}
}

func (t *timingStore) Put(a experiment.Artifact) (string, error) {
	c := t.span("store.put")
	loc, err := t.Store.Put(a)
	c.done()
	t.s.t.add("store.put_calls", 1)
	if err == nil {
		if fi, err := os.Stat(loc); err == nil {
			t.s.t.add("store.put_bytes", float64(fi.Size()))
			t.mu.Lock()
			t.sizes[store.Key(a.Name, a.Fingerprint)] = float64(fi.Size())
			t.mu.Unlock()
		}
	}
	return loc, err
}

// Get counts the bytes of the record Put wrote under the key: records
// are written once per cycle, so that is the file Get reads.
func (t *timingStore) Get(name, fingerprint string) (experiment.Artifact, bool, error) {
	c := t.span("store.get")
	a, ok, err := t.Store.Get(name, fingerprint)
	c.done()
	t.s.t.add("store.get_calls", 1)
	if ok && err == nil {
		t.mu.Lock()
		n := t.sizes[store.Key(name, fingerprint)]
		t.mu.Unlock()
		t.s.t.add("store.get_bytes", n)
	}
	return a, ok, err
}

func (t *timingStore) Has(name, fingerprint string) bool {
	c := t.span("store.has")
	ok := t.Store.Has(name, fingerprint)
	c.done()
	t.s.t.add("store.has_calls", 1)
	return ok
}

// liveHeapAfterGC forces a collection and returns the live heap.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	return readUint("/gc/heap/live:bytes")
}
