package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chipletqc/internal/campaign"
	"chipletqc/internal/daemon"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/report"
	"chipletqc/internal/store"
)

// gate lets tests hold a cell mid-flight: the gated experiment blocks
// until the test releases it or the campaign context is cancelled
// (modelling a drain arriving while the cell simulates).
var gate struct {
	mu      sync.Mutex
	entered chan string // receives the config fingerprint on entry
	release chan struct{}
}

// armGate installs fresh gate channels and returns them.
func armGate(t *testing.T) (entered chan string, release chan struct{}) {
	t.Helper()
	entered = make(chan string, 16)
	release = make(chan struct{})
	gate.mu.Lock()
	gate.entered, gate.release = entered, release
	gate.mu.Unlock()
	t.Cleanup(func() {
		gate.mu.Lock()
		gate.entered, gate.release = nil, nil
		gate.mu.Unlock()
	})
	return entered, release
}

// registerDaemonExperiments registers the daemon test workloads once
// per test binary: two instant experiments and one gated one.
var registerDaemonExperiments = sync.OnceFunc(func() {
	for _, name := range []string{"daemon-fast-a", "daemon-fast-b"} {
		name := name
		experiment.Register(experiment.New(name, "instant workload for daemon tests",
			func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
				tb := report.New("daemon test payload", "seed", "scenario")
				tb.Add(cfg.Seed, cfg.ResolvedScenario().Name)
				return tb, 5, nil
			}))
	}
	experiment.Register(experiment.New("daemon-gate", "blocks until released or cancelled",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			gate.mu.Lock()
			entered, release := gate.entered, gate.release
			gate.mu.Unlock()
			if entered != nil {
				entered <- experiment.Fingerprint(cfg)
			}
			if release != nil {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, 0, ctx.Err()
				}
			}
			tb := report.New("gated payload", "seed", "scenario")
			tb.Add(cfg.Seed, cfg.ResolvedScenario().Name)
			return tb, 5, nil
		}))
})

func fastPlan(seed int64) campaign.Plan {
	registerDaemonExperiments()
	return campaign.Plan{
		Experiments: []string{"daemon-fast-a", "daemon-fast-b"},
		Scenarios:   []string{"paper", "future-fab"},
		Seed:        seed,
	}
}

// newTestDaemon starts a daemon over httptest and returns a client
// bound to it plus the server for direct (in-process) control.
func newTestDaemon(t *testing.T, opts daemon.Options) (*daemon.Client, *daemon.Server) {
	t.Helper()
	if opts.Store == nil {
		opts.Store = store.OpenMem()
	}
	s := daemon.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		ts.Close()
	})
	c := daemon.NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	return c, s
}

// waitTerminal polls a job until it leaves the live states.
func waitTerminal(t *testing.T, c *daemon.Client, id string) daemon.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return daemon.JobStatus{}
}

// fetchArtifactBytes GETs one artifact by key and returns the raw
// response body — the byte-identity oracle for the cache contract.
func fetchArtifactBytes(t *testing.T, baseURL string, hc *http.Client, name, fingerprint string) []byte {
	t.Helper()
	resp, err := hc.Get(baseURL + "/v1/artifacts/" + name + "/" + fingerprint)
	if err != nil {
		t.Fatalf("GET artifact: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact: HTTP %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read artifact body: %v", err)
	}
	return b
}

// TestSubmitTwiceSecondRunsFromCache is the daemon's headline
// acceptance case: the same plan submitted twice to one running daemon
// executes once, and the repeat is served entirely from the store with
// byte-identical artifacts retrievable by fingerprint.
func TestSubmitTwiceSecondRunsFromCache(t *testing.T) {
	st := store.OpenMem()
	c, srv := newTestDaemon(t, daemon.Options{Store: st, Workers: 2})
	ctx := context.Background()

	first, err := c.Submit(ctx, fastPlan(1), false)
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if first.GridSize != 4 {
		t.Fatalf("grid size %d, want 4", first.GridSize)
	}
	done1 := waitTerminal(t, c, first.ID)
	if done1.State != daemon.StateDone || done1.Executed != 4 || done1.Cached != 0 {
		t.Fatalf("first job: state %s executed %d cached %d, want done/4/0", done1.State, done1.Executed, done1.Cached)
	}
	// Every cell must report phase "done" with its store key visible.
	if len(done1.Cells) != 4 {
		t.Fatalf("first job reported %d cells, want 4", len(done1.Cells))
	}
	base, hc := clientBase(t, c)
	bytes1 := make(map[string][]byte)
	for _, cell := range done1.Cells {
		if cell.Phase != "done" {
			t.Errorf("cell %d phase %q, want done", cell.Index, cell.Phase)
		}
		key := cell.Experiment + "/" + cell.Fingerprint
		bytes1[key] = fetchArtifactBytes(t, base, hc, cell.Experiment, cell.Fingerprint)
	}

	second, err := c.Submit(ctx, fastPlan(1), false)
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	done2 := waitTerminal(t, c, second.ID)
	if done2.State != daemon.StateDone || done2.Executed != 0 || done2.Cached != 4 {
		t.Fatalf("second job: state %s executed %d cached %d, want done/0/4", done2.State, done2.Executed, done2.Cached)
	}
	for _, cell := range done2.Cells {
		if cell.Phase != "cached" {
			t.Errorf("repeat cell %d phase %q, want cached", cell.Index, cell.Phase)
		}
		key := cell.Experiment + "/" + cell.Fingerprint
		if got := fetchArtifactBytes(t, base, hc, cell.Experiment, cell.Fingerprint); !bytes.Equal(got, bytes1[key]) {
			t.Errorf("artifact %s changed bytes across the cached repeat", key)
		}
	}

	// The daemon's own status agrees.
	status := srv.Status()
	if status.Done != 2 || status.StoreRecords != 4 {
		t.Errorf("server status: done %d store records %d, want 2 and 4", status.Done, status.StoreRecords)
	}
}

// clientBase recovers the base URL and HTTP client a test client was
// built with, for raw requests alongside the typed API.
func clientBase(t *testing.T, c *daemon.Client) (string, *http.Client) {
	t.Helper()
	// The client is always built from ts.URL in newTestDaemon; status
	// is the cheapest way to assert it is wired before raw use.
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatalf("client not wired: %v", err)
	}
	return c.BaseURL(), c.HTTPClient
}

// TestDrainMidCampaign pins the graceful-shutdown contract: a SIGTERM
// (BeginShutdown) arriving while a job is mid-grid cancels the
// in-flight cell cleanly, keeps every completed cell persisted, and
// reports the job as interrupted — not failed — with the interruption
// visible in GET /v1/campaigns/{id}.
func TestDrainMidCampaign(t *testing.T) {
	registerDaemonExperiments()
	st := store.OpenMem()
	c, srv := newTestDaemon(t, daemon.Options{Store: st, Workers: 1, Slots: 1})
	entered, _ := armGate(t)

	// Grid order with Workers 1 runs cells serially: daemon-fast-a
	// completes and persists, then daemon-gate blocks.
	plan := campaign.Plan{
		Experiments: []string{"daemon-fast-a", "daemon-gate"},
		Scenarios:   []string{"paper"},
		Seed:        7,
	}
	submitted, err := c.Submit(context.Background(), plan, false)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var gateFP string
	select {
	case gateFP = <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated cell never started")
	}

	// SIGTERM: drain with one cell done and one blocked mid-simulation.
	srv.Drain()

	got, err := c.Job(context.Background(), submitted.ID)
	if err != nil {
		t.Fatalf("Job after drain: %v", err)
	}
	if got.State != daemon.StateInterrupted {
		t.Fatalf("state %s, want interrupted", got.State)
	}
	if got.Error == "" {
		t.Error("interrupted job carries no error detail")
	}
	if got.Errors != 0 {
		t.Errorf("interrupted job counted %d PhaseError events, want 0 (cancellation is not a cell failure)", got.Errors)
	}
	if got.Executed != 1 {
		t.Errorf("executed %d, want 1 (the completed cell)", got.Executed)
	}
	for _, cell := range got.Cells {
		switch cell.Experiment {
		case "daemon-fast-a":
			if cell.Phase != "done" {
				t.Errorf("completed cell phase %q, want done", cell.Phase)
			}
			if !st.Has(cell.Experiment, cell.Fingerprint) {
				t.Error("completed cell's artifact was not persisted across the drain")
			}
		case "daemon-gate":
			if cell.Phase != "run" {
				t.Errorf("interrupted cell phase %q, want run (started, never finished, no error)", cell.Phase)
			}
			if st.Has(cell.Experiment, gateFP) {
				t.Error("cancelled cell left an artifact in the store")
			}
		}
	}

	// Draining daemons reject new work with 503.
	if _, err := c.Submit(context.Background(), fastPlan(9), false); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("Submit while draining: err = %v, want HTTP 503", err)
	}
	if s := srv.Status(); s.State != "draining" || s.Interrupted != 1 {
		t.Errorf("server status after drain: %+v, want draining with 1 interrupted", s)
	}
}

// TestQueueAdmitsFIFO pins admission control: with one slot, a second
// submission queues until the first job finishes, then runs.
func TestQueueAdmitsFIFO(t *testing.T) {
	registerDaemonExperiments()
	c, _ := newTestDaemon(t, daemon.Options{Workers: 1, Slots: 1})
	_, release := armGate(t)

	blocker, err := c.Submit(context.Background(), campaign.Plan{
		Experiments: []string{"daemon-gate"},
		Scenarios:   []string{"paper"},
		Seed:        1,
	}, false)
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	queued, err := c.Submit(context.Background(), fastPlan(2), false)
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if queued.State != daemon.StateQueued {
		t.Fatalf("second job state %s at submission, want queued (slot busy)", queued.State)
	}
	// It must stay queued while the slot is held.
	time.Sleep(50 * time.Millisecond)
	st, err := c.Job(context.Background(), queued.ID)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if st.State != daemon.StateQueued {
		t.Fatalf("second job state %s while slot held, want queued", st.State)
	}

	close(release)
	if st := waitTerminal(t, c, blocker.ID); st.State != daemon.StateDone {
		t.Fatalf("blocker finished %s, want done", st.State)
	}
	if st := waitTerminal(t, c, queued.ID); st.State != daemon.StateDone || st.Executed != 4 {
		t.Fatalf("queued job finished %s with %d executed, want done/4", st.State, st.Executed)
	}

	jobs, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 2 || jobs[0].ID != blocker.ID || jobs[1].ID != queued.ID {
		t.Errorf("job list %v, want submission order [%s %s]", jobs, blocker.ID, queued.ID)
	}
}

// TestWatchReplaysAndTerminates pins the SSE contract end to end: a
// watcher attached after completion still sees every cell event (full
// history replay) and the stream ends with the terminal status.
func TestWatchReplaysAndTerminates(t *testing.T) {
	c, _ := newTestDaemon(t, daemon.Options{Workers: 2})
	submitted, err := c.Submit(context.Background(), fastPlan(3), false)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, c, submitted.ID)

	var events []daemon.EventJSON
	final, err := c.Watch(context.Background(), submitted.ID, func(e daemon.EventJSON) {
		events = append(events, e)
	})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if final.State != daemon.StateDone {
		t.Errorf("terminal status %s, want done", final.State)
	}
	// 4 cells, each run + done (no store misses are cached here).
	if len(events) != 8 {
		t.Errorf("watcher replayed %d events, want 8 (run+done per cell)", len(events))
	}
	byPhase := map[campaign.Phase]int{}
	for _, e := range events {
		byPhase[e.Phase]++
	}
	if byPhase[campaign.PhaseRun] != 4 || byPhase[campaign.PhaseDone] != 4 {
		t.Errorf("phase counts %v, want 4 run and 4 done", byPhase)
	}
}

// TestHTTPErrors pins the API's failure modes: malformed and invalid
// plans are 400s naming the problem, unknown jobs and artifacts 404.
func TestHTTPErrors(t *testing.T) {
	c, _ := newTestDaemon(t, daemon.Options{})
	base, hc := clientBase(t, c)

	resp, err := hc.Post(base+"/v1/campaigns", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}

	if _, err := c.Submit(context.Background(), campaign.Plan{
		Experiments: []string{"no-such-experiment"},
		Scenarios:   []string{"paper"},
	}, false); err == nil || !strings.Contains(err.Error(), "no-such-experiment") {
		t.Errorf("invalid plan: err = %v, want mention of the unknown experiment", err)
	}

	if _, err := c.Job(context.Background(), "job-999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job: err = %v, want 404", err)
	}

	if _, ok, err := c.Artifact(context.Background(), "daemon-fast-a", "000000000000"); err != nil || ok {
		t.Errorf("missing artifact: ok=%t err=%v, want clean miss", ok, err)
	}
}

// TestSubmitTooLarge: a plan body one byte over the 4 MiB cap is
// refused with 413 and a message naming the limit, not read whole and
// reported as malformed JSON.
func TestSubmitTooLarge(t *testing.T) {
	c, _ := newTestDaemon(t, daemon.Options{})
	base, hc := clientBase(t, c)

	const limit = 4 << 20
	head, tail := `{"plan":{"experiments":["`, `"]}}`
	body := head + strings.Repeat("a", limit+1-len(head)-len(tail)) + tail
	resp, err := hc.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding the error body: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "4194304-byte limit") {
		t.Errorf("oversized plan: HTTP %d %q, want 413 naming the 4194304-byte limit", resp.StatusCode, e.Error)
	}
}

// TestFailedJobReportsFailed distinguishes a genuine cell failure from
// an interruption: the job lands in state failed with the cell error.
func TestFailedJobReportsFailed(t *testing.T) {
	registerFailing()
	c, _ := newTestDaemon(t, daemon.Options{})
	submitted, err := c.Submit(context.Background(), campaign.Plan{
		Experiments: []string{"daemon-always-fails"},
		Scenarios:   []string{"paper"},
		Seed:        1,
	}, false)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, c, submitted.ID)
	if st.State != daemon.StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deliberate failure") {
		t.Errorf("job error %q does not carry the cell failure", st.Error)
	}
	if st.Errors != 1 {
		t.Errorf("job counted %d PhaseError events, want 1", st.Errors)
	}
}

var registerFailing = sync.OnceFunc(func() {
	experiment.Register(experiment.New("daemon-always-fails", "always fails, for daemon tests",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			return nil, 0, fmt.Errorf("deliberate failure")
		}))
})

// TestServeListensAndDrainsOnContext exercises the real network path:
// ListenAndServe on a loopback port, a submission over TCP, then
// context cancellation (the SIGTERM path in `chipletqc serve`) must return
// nil after a clean drain.
func TestServeListensAndDrainsOnContext(t *testing.T) {
	registerDaemonExperiments()
	s := daemon.New(daemon.Options{Store: store.OpenMem(), Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ListenAndServe(ctx, "127.0.0.1:0") }()

	// Submit in-process (the listener address is not exposed), let the
	// job finish, then deliver the shutdown signal.
	if _, err := s.Submit(fastPlan(11), false); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Status().Done == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Status().Done != 1 {
		t.Fatal("job did not finish before the shutdown signal")
	}
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after a clean drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
}

// TestPprofEndpoints pins the daemon's profiling surface: the daemon
// owns its mux, so net/http/pprof's init-time DefaultServeMux
// registrations never apply and the handlers must be wired explicitly.
// A long campaign that cannot be profiled live cannot be debugged.
func TestPprofEndpoints(t *testing.T) {
	c, _ := newTestDaemon(t, daemon.Options{})
	base, hc := clientBase(t, c)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := hc.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: HTTP %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
}
