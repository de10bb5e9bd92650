package chipletqc

import (
	"context"
	"net"
	"net/http"

	"chipletqc/internal/campaign"
	"chipletqc/internal/daemon"
)

// Campaign daemon re-exports: the long-running service form of
// RunCampaign. A CampaignServer owns one open ArtifactStore and a FIFO
// job queue — clients POST CampaignPlans, watch per-cell progress over
// Server-Sent Events, and fetch stored artifacts by (experiment,
// fingerprint) key, so many clients share one warm cache and one
// bounded worker budget:
//
//	st, _ := chipletqc.OpenStore("artifacts")
//	defer st.Close()
//	err := chipletqc.ServeCampaigns(ctx, ":8080", chipletqc.CampaignServerOptions{Store: st})
//
//	// elsewhere:
//	c := chipletqc.NewCampaignClient("localhost:8080")
//	job, _ := c.Submit(ctx, plan, false)
//	final, _ := c.Watch(ctx, job.ID, nil)
//
// Cancelling the context (or POST /v1/shutdown) drains gracefully:
// in-flight cells finish or cancel cleanly, completed cells stay
// persisted, and interrupted jobs report as interrupted — not failed.
// chipletqc's serve verb wraps exactly this API, and its submit, job,
// fetch, status and shutdown verbs are the clients.
type (
	// CampaignServer is the daemon: one store, one job queue, one
	// HTTP API.
	CampaignServer = daemon.Server
	// CampaignServerOptions configures a CampaignServer (store, total
	// worker budget, concurrent job slots, logging).
	CampaignServerOptions = daemon.Options
	// CampaignSubmission is the submit request body: a plan plus the
	// force-re-execution knob.
	CampaignSubmission = daemon.Submission
	// CampaignJobState is a job's lifecycle position
	// (queued/running/done/failed/interrupted).
	CampaignJobState = daemon.State
	// CampaignJobStatus is the API's snapshot of one submitted job.
	CampaignJobStatus = daemon.JobStatus
	// CampaignCellStatus is one cell's position within a job.
	CampaignCellStatus = daemon.CellStatus
	// CampaignServerStatus is the daemon's own status snapshot.
	CampaignServerStatus = daemon.ServerStatus
	// CampaignClient talks to a CampaignServer over HTTP.
	CampaignClient = daemon.Client
	// CampaignEventJSON is the wire form of one campaign event on the
	// SSE stream.
	CampaignEventJSON = daemon.EventJSON
	// CampaignFanout broadcasts one campaign's event stream to many
	// concurrent subscribers with full-history replay — pass its Emit
	// as CampaignOptions.Progress to watch a run from several places.
	CampaignFanout = campaign.Fanout
)

// Campaign job states.
const (
	CampaignJobQueued      = daemon.StateQueued
	CampaignJobRunning     = daemon.StateRunning
	CampaignJobDone        = daemon.StateDone
	CampaignJobFailed      = daemon.StateFailed
	CampaignJobInterrupted = daemon.StateInterrupted
)

// NewCampaignServer returns an unstarted daemon over opts. Mount
// Handler on an existing mux, or drive it with Serve/ListenAndServe;
// ServeCampaigns is the one-call form.
func NewCampaignServer(opts CampaignServerOptions) *CampaignServer { return daemon.New(opts) }

// ServeCampaigns runs a campaign daemon on addr until ctx is cancelled
// or a shutdown request arrives, then drains gracefully. The caller
// keeps ownership of opts.Store and closes it after ServeCampaigns
// returns; a nil error means every job either finished or was drained
// cleanly.
func ServeCampaigns(ctx context.Context, addr string, opts CampaignServerOptions) error {
	return daemon.New(opts).ListenAndServe(ctx, addr)
}

// ServeCampaignsOn is ServeCampaigns over a caller-owned listener, for
// callers that need the bound address (tests, port-0 setups).
func ServeCampaignsOn(ctx context.Context, l net.Listener, opts CampaignServerOptions) error {
	return daemon.New(opts).Serve(ctx, l)
}

// CampaignHandler returns a new daemon's HTTP handler for mounting
// under a caller-owned http.Server; the returned server manages the
// job queue behind it (use its Drain for graceful shutdown).
func CampaignHandler(opts CampaignServerOptions) (*CampaignServer, http.Handler) {
	s := daemon.New(opts)
	return s, s.Handler()
}

// NewCampaignClient returns a client for the daemon at baseURL; a bare
// host:port or ":port" is promoted to an http:// URL.
func NewCampaignClient(baseURL string) *CampaignClient { return daemon.NewClient(baseURL) }

// NewCampaignFanout returns an open event fan-out.
func NewCampaignFanout() *CampaignFanout { return campaign.NewFanout() }
