// Package daemon runs the campaign engine as a long-running HTTP
// service over one open artifact store. Clients POST campaign plans
// and get back job handles; the daemon expands each plan, queues the
// job, and executes it under a bounded worker budget shared across
// concurrent jobs, with per-cell progress wired off the campaign
// event stream. The API serves job status as JSON, live progress as
// Server-Sent Events, and stored artifacts by (experiment,
// fingerprint) key — the same read-through the engine itself uses, so
// a warm daemon answers repeat submissions entirely from the store.
// Shutdown drains gracefully: in-flight cells finish or cancel
// cleanly, completed cells stay persisted, and interrupted jobs
// report as such rather than as failures.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"chipletqc/internal/campaign"
	"chipletqc/internal/runner"
	"chipletqc/internal/store"
)

// ErrDraining is returned by Submit once shutdown has begun.
var ErrDraining = errors.New("daemon: draining, not accepting jobs")

// DefaultSlots is the number of jobs allowed to run concurrently when
// Options.Slots is unset. Two slots let a long sweep and a quick
// interactive job share the daemon without the quick one waiting for
// the sweep, while keeping each job's worker share meaningful.
const DefaultSlots = 2

// Options configures a Server.
type Options struct {
	// Store persists and serves cell artifacts for every job. nil runs
	// the daemon without persistence: jobs execute every cell and the
	// artifact endpoint always misses.
	Store store.Store
	// Workers is the total simulation worker budget shared across all
	// running jobs; <= 0 means GOMAXPROCS. Each running job gets an
	// equal share (at least 1).
	Workers int
	// Slots is how many jobs may run at once; excess submissions queue
	// FIFO. <= 0 means DefaultSlots.
	Slots int
	// Logf, when non-nil, receives one line per lifecycle transition
	// (submit, start, finish, drain).
	Logf func(format string, args ...any)
}

// Submission is the POST /v1/campaigns request body: a campaign plan
// plus daemon-level knobs.
type Submission struct {
	campaign.Plan
	// Force re-executes every cell even when the store already holds
	// its artifact.
	Force bool `json:"force,omitempty"`
}

// ServerStatus is the GET /v1/status response.
type ServerStatus struct {
	// State is "serving" or "draining".
	State         string  `json:"state"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Workers is the total budget; JobWorkers the per-running-job share.
	Workers    int `json:"workers"`
	Slots      int `json:"slots"`
	JobWorkers int `json:"job_workers"`
	// Job counts by state.
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Interrupted int `json:"interrupted"`
	// StoreRecords is the store's current record count (-1 without a
	// store); StoreDir is set for filesystem-backed stores.
	StoreRecords int    `json:"store_records"`
	StoreDir     string `json:"store_dir,omitempty"`
}

// EventJSON is the SSE wire form of one campaign event.
type EventJSON struct {
	Phase campaign.Phase `json:"phase"`
	Cell  campaign.Cell  `json:"cell"`
	Error string         `json:"error,omitempty"`
}

// Server owns one open store and a FIFO job queue, and serves the
// campaign API. Create with New, mount Handler on any mux or serve
// directly with Serve/ListenAndServe. The zero value is not usable.
type Server struct {
	opts    Options
	workers int // resolved total budget
	slots   int
	perJob  int // each running job's worker share

	mux        *http.ServeMux
	baseCtx    context.Context
	baseCancel context.CancelFunc
	shutdownCh chan struct{}
	shutdown   sync.Once
	started    time.Time
	wg         sync.WaitGroup // running job goroutines

	logMu    sync.Mutex // serialises Logf across handler and job goroutines
	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	queue    []*job   // FIFO admission queue
	running  int
	draining bool
	seq      int
}

// New returns a server ready to accept submissions. The caller keeps
// ownership of the store and closes it after Serve (or Drain) returns.
func New(opts Options) *Server {
	workers := runner.Workers(opts.Workers, -1)
	slots := opts.Slots
	if slots <= 0 {
		slots = DefaultSlots
	}
	perJob := workers / slots
	if perJob < 1 {
		perJob = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		workers:    workers,
		slots:      slots,
		perJob:     perJob,
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		shutdownCh: make(chan struct{}),
		started:    time.Now(),
		jobs:       make(map[string]*job),
	}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/artifacts/{experiment}/{fingerprint}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("POST /v1/shutdown", s.handleShutdown)
	// Explicit pprof wiring: the daemon builds its own mux, so the
	// net/http/pprof init-time DefaultServeMux registrations never apply.
	// Long campaigns are profiled live through these endpoints.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the daemon's HTTP handler, for mounting under a
// caller-owned server (tests use this with httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// logf serialises lifecycle logging: jobs and HTTP handlers log from
// their own goroutines, and the sink (a file, a test buffer) need not
// be concurrency-safe.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.opts.Logf(format, args...)
}

// Submit queues a plan directly (the in-process equivalent of POST
// /v1/campaigns) and returns the new job's status snapshot.
func (s *Server) Submit(plan campaign.Plan, force bool) (JobStatus, error) {
	cells, err := campaign.Expand(plan)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), plan, force, cells)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.pumpLocked()
	s.mu.Unlock()
	s.logf("daemon: %s submitted (%d cells, force=%t)", j.id, len(cells), force)
	return j.status(true), nil
}

// pumpLocked starts queued jobs while slots are free. Callers hold
// s.mu.
func (s *Server) pumpLocked() {
	for !s.draining && s.running < s.slots && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.startLocked(j)
	}
}

// startLocked launches one job's campaign on its own goroutine.
// Callers hold s.mu.
func (s *Server) startLocked(j *job) {
	s.running++
	j.start()
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		s.logf("daemon: %s running (%d cells, %d workers)", j.id, len(j.cells), s.perJob)
		rep, err := campaign.Run(ctx, j.plan, campaign.Options{
			Store:    s.opts.Store,
			Force:    j.force,
			Workers:  s.perJob,
			Progress: j.observe,
		})
		j.finish(rep, err, ctx.Err() != nil)
		st := j.status(false)
		s.logf("daemon: %s %s (executed %d, cached %d)", j.id, st.State, st.Executed, st.Cached)
		s.mu.Lock()
		s.running--
		s.pumpLocked()
		s.mu.Unlock()
	}()
}

// BeginShutdown starts a graceful drain: queued jobs are marked
// interrupted without running, running jobs have their contexts
// cancelled (in-flight trials stop at the next cancellation point;
// cells already persisted stay in the store), and new submissions are
// rejected. Idempotent; returns immediately. Wait for completion with
// Drain or by letting Serve return.
func (s *Server) BeginShutdown() {
	s.shutdown.Do(func() {
		s.mu.Lock()
		s.draining = true
		abandoned := s.queue
		s.queue = nil
		running := s.running
		s.mu.Unlock()
		for _, j := range abandoned {
			j.abandon("daemon shut down before the job left the queue")
		}
		s.baseCancel()
		close(s.shutdownCh)
		s.logf("daemon: draining (%d running cancelled, %d queued abandoned)", running, len(abandoned))
	})
}

// Drain begins shutdown (if not already begun) and blocks until every
// running job goroutine has finished.
func (s *Server) Drain() {
	s.BeginShutdown()
	s.wg.Wait()
}

// Serve runs the HTTP server on l until ctx is cancelled, POST
// /v1/shutdown arrives, or the listener fails, then drains jobs and
// shuts the HTTP server down. Returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	// No read or write deadline on whole requests: watch streams run
	// for a job's lifetime. Only header reads and idle keep-alives are
	// bounded.
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	s.logf("daemon: serving on %s (%d workers, %d slots)", l.Addr(), s.workers, s.slots)

	var failed error
	select {
	case <-ctx.Done():
		s.logf("daemon: signal received, shutting down")
	case <-s.shutdownCh:
	case failed = <-serveErr:
	}
	s.Drain()

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if failed == nil {
		// Collect the Serve goroutine's ErrServerClosed.
		if e := <-serveErr; !errors.Is(e, http.ErrServerClosed) {
			failed = e
		}
	}
	if failed != nil {
		return failed
	}
	s.logf("daemon: drained, exiting")
	return err
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// job looks up a job by ID.
func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v indented — the CLI and CI scripts read this
// output, and the two-space indent is part of the tool's face.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxPlanBytes caps a submission's JSON body; a larger one is refused
// with 413.
const maxPlanBytes = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPlanBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "campaign plan exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "invalid campaign plan: %v", err)
		return
	}
	st, err := s.Submit(sub.Plan, sub.Force)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, len(jobs))}
	for i, j := range jobs {
		out.Jobs[i] = j.status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleEvents streams a job's campaign events as Server-Sent Events:
// one "cell" event per campaign event (full history replayed first,
// then live), and a final "status" event carrying the terminal
// JobStatus, after which the stream ends.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	events, cancel := j.fanout.Subscribe()
	defer cancel()
	// Cell events carry their history index as the SSE id, so a client
	// that reconnects after a dropped stream — the full history replays
	// on every subscription — can skip the events it already processed.
	seq := 0
	for {
		select {
		case e, ok := <-events:
			if !ok {
				// Stream complete: the job is terminal.
				writeSSE(w, fl, -1, "status", j.status(true))
				return
			}
			ej := EventJSON{Phase: e.Phase, Cell: e.Cell}
			if e.Err != nil {
				ej.Error = e.Err.Error()
			}
			if writeSSE(w, fl, seq, "cell", ej) != nil {
				return
			}
			seq++
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one Server-Sent Event with a JSON data payload; a
// non-negative id is emitted as the standard SSE id field.
func writeSSE(w io.Writer, fl http.Flusher, id int, event string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id >= 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", id); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// handleArtifact is the store read-through: it serves the stored
// artifact for an (experiment, fingerprint) key as JSON, byte-for-byte
// the same record a campaign resume would load.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name, fingerprint := r.PathValue("experiment"), r.PathValue("fingerprint")
	if s.opts.Store == nil {
		httpError(w, http.StatusNotFound, "daemon runs without a store; no artifacts are persisted")
		return
	}
	a, ok, err := s.opts.Store.Get(name, fingerprint)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no artifact for (%s, %s)", name, fingerprint)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	a.WriteJSON(w)
}

// Status snapshots the daemon (the in-process equivalent of GET
// /v1/status).
func (s *Server) Status() ServerStatus {
	s.mu.Lock()
	st := ServerStatus{
		State:         "serving",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.workers,
		Slots:         s.slots,
		JobWorkers:    s.perJob,
		StoreRecords:  -1,
	}
	if s.draining {
		st.State = "draining"
	}
	for _, j := range s.jobs {
		switch j.getState() {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateInterrupted:
			st.Interrupted++
		}
	}
	s.mu.Unlock()
	if s.opts.Store != nil {
		if n, err := s.opts.Store.Len(); err == nil {
			st.StoreRecords = n
		}
		if fs, ok := s.opts.Store.(*store.FS); ok {
			st.StoreDir = fs.Dir()
		}
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// handleShutdown starts the graceful drain and acknowledges
// immediately; the drain itself proceeds in the background and Serve
// returns once it completes.
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
	s.BeginShutdown()
}
