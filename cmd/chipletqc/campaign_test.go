package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chipletqc/internal/daemon"
	"chipletqc/internal/store"
)

// TestColdThenWarmRun pins the end-to-end cache contract through the
// CLI: a 2×2 grid executes fully once, then is served entirely from
// the store.
func TestColdThenWarmRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"campaign", "-quick", "-experiments", "fig2,eq1", "-scenarios", "paper,future-fab", "-store", dir}

	out, _, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 4 executed, 0 cached") {
		t.Errorf("cold run summary wrong:\n%s", out)
	}

	out, _, err = runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 0 executed, 4 cached") {
		t.Errorf("warm run summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "cached     fig2@future-fab (store hit)") {
		t.Errorf("warm run should list per-cell store hits:\n%s", out)
	}
}

// TestShardedRunsCoverGrid pins -shard: 0/2 and 1/2 together fill the
// store so a subsequent unsharded run executes nothing.
func TestShardedRunsCoverGrid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"campaign", "-quick", "-experiments", "fig2,eq1", "-scenarios", "paper,future-fab", "-store", dir}

	for _, shard := range []string{"0/2", "1/2"} {
		out, _, err := runArgs(t, context.Background(), append(base, "-shard", shard)...)
		if err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
		if !strings.Contains(out, "2 cells, 2 executed, 0 cached") ||
			!strings.Contains(out, "shard "+shard+" of a 4-cell grid") {
			t.Errorf("shard %s summary wrong:\n%s", shard, out)
		}
	}
	out, _, err := runArgs(t, context.Background(), base...)
	if err != nil {
		t.Fatalf("unsharded pass: %v", err)
	}
	if !strings.Contains(out, "4 cells, 0 executed, 4 cached") {
		t.Errorf("shards did not fill the store:\n%s", out)
	}
}

// TestResumeFalseForcesReexecution pins -resume=false: a warm store is
// ignored and overwritten.
func TestResumeFalseForcesReexecution(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"campaign", "-quick", "-experiments", "fig2", "-store", dir}
	if _, _, err := runArgs(t, context.Background(), base...); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	out, _, err := runArgs(t, context.Background(), append(base, "-resume=false")...)
	if err != nil {
		t.Fatalf("forced run: %v", err)
	}
	if !strings.Contains(out, "1 cells, 1 executed, 0 cached") {
		t.Errorf("-resume=false should re-execute:\n%s", out)
	}
}

// TestJSONReport pins -json: a machine-readable report with the
// executed/cached counts the CI smoke job asserts on.
func TestJSONReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"campaign", "-quick", "-experiments", "fig2", "-scenarios", "paper,future-fab", "-store", dir, "-json"}
	out, _, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep struct {
		GridSize int `json:"grid_size"`
		Total    int `json:"total"`
		Executed int `json:"executed"`
		Cached   int `json:"cached"`
		Cells    []struct {
			Cell struct {
				Experiment  string `json:"experiment"`
				Scenario    string `json:"scenario"`
				Fingerprint string `json:"config_fingerprint"`
			} `json:"cell"`
			Cached bool `json:"cached"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	if rep.GridSize != 2 || rep.Total != 2 || rep.Executed != 2 || rep.Cached != 0 {
		t.Errorf("report counts wrong: %+v", rep)
	}
	if len(rep.Cells) != 2 || rep.Cells[0].Cell.Fingerprint == "" {
		t.Errorf("report cells missing identity: %+v", rep.Cells)
	}
	if rep.Cells[0].Cell.Fingerprint == rep.Cells[1].Cell.Fingerprint {
		t.Error("different scenarios should fingerprint differently")
	}
}

// TestListDryRun pins -list: the grid with store hit/miss status, no
// execution.
func TestListDryRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"campaign", "-quick", "-experiments", "fig2,eq1", "-store", dir}
	out, _, err := runArgs(t, context.Background(), append(base, "-list")...)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if !strings.Contains(out, "fig2@paper") || !strings.Contains(out, "2 cells (grid 2), 0 store hits") {
		t.Errorf("cold -list output wrong:\n%s", out)
	}
	if _, _, err := runArgs(t, context.Background(), base...); err != nil {
		t.Fatalf("fill run: %v", err)
	}
	out, _, err = runArgs(t, context.Background(), append(base, "-list")...)
	if err != nil {
		t.Fatalf("warm list: %v", err)
	}
	if !strings.Contains(out, "2 store hits") {
		t.Errorf("warm -list should report hits:\n%s", out)
	}
}

// TestProgressStream pins -progress: per-cell events on the error
// stream, report on the output stream.
func TestProgressStream(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	_, errs, err := runArgs(t, context.Background(),
		"campaign", "-quick", "-experiments", "fig2", "-store", dir, "-progress")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(errs, "run fig2@paper") || !strings.Contains(errs, "done fig2@paper") {
		t.Errorf("progress events missing from error stream:\n%s", errs)
	}
}

// TestErrorPaths pins the CLI failure modes: unknown names, bad shard
// syntax, and -h. (Unknown and stray flags: TestModeFlagConflicts.)
func TestErrorPaths(t *testing.T) {
	if _, _, err := runArgs(t, context.Background(), "campaign", "-experiments", "nope", "-store", ""); err == nil ||
		!strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown experiment should list known names, got %v", err)
	}
	if _, _, err := runArgs(t, context.Background(), "campaign", "-shard", "2"); err == nil ||
		!strings.Contains(err.Error(), "i/n") {
		t.Errorf("bad shard syntax should explain the form, got %v", err)
	}
	if _, errs, err := runArgs(t, context.Background(), "campaign", "-h"); err != nil {
		t.Errorf("-h should not be an error, got %v", err)
	} else if !strings.Contains(errs, "-shard") {
		t.Errorf("usage should document -shard:\n%s", errs)
	}
}

// TestNoStoreRuns pins -store "": the campaign runs without
// persistence.
func TestNoStoreRuns(t *testing.T) {
	out, _, err := runArgs(t, context.Background(), "campaign", "-quick", "-experiments", "fig2", "-store", "")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "1 cells, 1 executed, 0 cached (no store)") {
		t.Errorf("store-less summary wrong:\n%s", out)
	}
}

// fillStore runs a tiny campaign into dir and returns one record path.
func fillStore(t *testing.T, dir string) string {
	t.Helper()
	if _, _, err := runArgs(t, context.Background(),
		"campaign", "-quick", "-experiments", "fig2", "-store", dir); err != nil {
		t.Fatalf("fill run: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig2-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one fig2 record in %s, got %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

// TestVerifyBackupRestoreCycle pins the admin workflow end to end: a
// clean store verifies, a corrupted record fails -verify naming the
// file, and -restore from a -backup heals it.
func TestVerifyBackupRestoreCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	bak := filepath.Join(t.TempDir(), "bak")
	record := fillStore(t, dir)

	out, _, err := runArgs(t, context.Background(), "verify", "-store", dir)
	if err != nil {
		t.Fatalf("verify of a clean store failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 issues") {
		t.Errorf("clean verify output wrong:\n%s", out)
	}

	out, _, err = runArgs(t, context.Background(), "backup", "-store", dir, bak)
	if err != nil {
		t.Fatalf("backup: %v", err)
	}
	if !strings.Contains(out, "backed up 1 records") {
		t.Errorf("backup output wrong:\n%s", out)
	}

	if err := os.WriteFile(record, []byte("{corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err = runArgs(t, context.Background(), "verify", "-store", dir)
	if err == nil {
		t.Fatalf("verify should fail on a corrupt store:\n%s", out)
	}
	if !strings.Contains(out, record) {
		t.Errorf("verify should name the corrupt file %s:\n%s", record, out)
	}

	if _, _, err = runArgs(t, context.Background(), "restore", "-store", dir, bak); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if out, _, err = runArgs(t, context.Background(), "verify", "-store", dir); err != nil {
		t.Fatalf("verify after restore: %v\n%s", err, out)
	}
	// The healed store serves the campaign without re-executing.
	out, _, err = runArgs(t, context.Background(), "campaign", "-quick", "-experiments", "fig2", "-store", dir)
	if err != nil {
		t.Fatalf("warm run after restore: %v", err)
	}
	if !strings.Contains(out, "1 cells, 0 executed, 1 cached") {
		t.Errorf("restored store should serve the campaign:\n%s", out)
	}
}

// TestPruneRemovesPlantedJunk pins -prune through the CLI: a corrupt
// record and a stray file disappear; the next run re-executes only the
// pruned cell.
func TestPruneRemovesPlantedJunk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	record := fillStore(t, dir)
	if err := os.WriteFile(record, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Only .json strays are pruned — arbitrary user files are left alone.
	if err := os.WriteFile(filepath.Join(dir, "NOT-A-RECORD.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runArgs(t, context.Background(), "prune", "-store", dir)
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	if !strings.Contains(out, "1 broken records, 1 strays") {
		t.Errorf("prune summary wrong:\n%s", out)
	}
	if _, err := os.Stat(record); !os.IsNotExist(err) {
		t.Errorf("pruned record still present: %v", err)
	}
	if out, _, err := runArgs(t, context.Background(), "verify", "-store", dir); err != nil {
		t.Errorf("verify after prune: %v\n%s", err, out)
	}
}

// TestGCPinCycle pins -pin/-gc/-unpin: a pinned cell survives an
// evict-everything GC, and -unpin releases it.
func TestGCPinCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"campaign", "-quick", "-experiments", "fig2,eq1", "-store", dir}
	if _, _, err := runArgs(t, context.Background(), base...); err != nil {
		t.Fatalf("fill run: %v", err)
	}
	pinArgs := []string{"pin", "-quick", "-experiments", "fig2", "-store", dir, "keep"}
	out, _, err := runArgs(t, context.Background(), pinArgs...)
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	if !strings.Contains(out, `pinned 1 of 1 cells under "keep"`) {
		t.Errorf("pin output wrong:\n%s", out)
	}
	out, _, err = runArgs(t, context.Background(), "gc", "-store", dir, "-gc-keep", "1")
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if !strings.Contains(out, "evicted eq1-") || strings.Contains(out, "evicted fig2-") {
		t.Errorf("gc should evict the unpinned eq1 record only:\n%s", out)
	}
	out, _, err = runArgs(t, context.Background(), "unpin", "-store", dir, "keep")
	if err != nil {
		t.Fatalf("unpin: %v", err)
	}
	if !strings.Contains(out, `released 1 pins labelled "keep"`) {
		t.Errorf("unpin output wrong:\n%s", out)
	}
}

// TestGenerateFlagRunsAGeneratedGrid pins -generate: the grid's
// scenarios register, run like any preset, and cache by fingerprint.
func TestGenerateFlagRunsAGeneratedGrid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"campaign", "-quick", "-experiments", "genyield", "-store", dir,
		"-generate", "topos=hex-1x2-q6,square-1x2-q6;sigmas=0.004,0.008"}

	out, _, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("generated grid run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 4 executed, 0 cached") {
		t.Errorf("cold generated run summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "genyield@gen/hex-1x2-q6/sigma0.004") {
		t.Errorf("generated scenario names missing from the cell list:\n%s", out)
	}
	out, _, err = runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("warm generated run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 0 executed, 4 cached") {
		t.Errorf("warm generated run summary wrong:\n%s", out)
	}

	if _, _, err := runArgs(t, context.Background(),
		"campaign", "-quick", "-generate", "topos=;sigmas=0.004"); err == nil {
		t.Error("empty -generate topos should fail")
	}
}

// TestPinKeepsItsCampaignFlags: pin addresses the plan's (sharded)
// grid, so it takes the plan flags and -shard.
func TestPinKeepsItsCampaignFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	out, errs, err := runArgs(t, context.Background(),
		"pin", "-store", dir, "-quick", "-experiments", "fig2", "-shard", "0/2", "nightly")
	if err != nil {
		t.Fatalf("err = %v (stderr %q), want -pin to accept plan flags and -shard", err, errs)
	}
	if !strings.Contains(out, "pinned 0 of") {
		t.Errorf("pin output wrong:\n%s", out)
	}
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestServeSubmitWatchFetchShutdown drives the daemon through the CLI
// exactly as a user would: start serve, submit a plan twice (second
// run fully cached), read a job, fetch an artifact by fingerprint,
// check status, and drain with shutdown.
func TestServeSubmitWatchFetchShutdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serveErr := make(chan error, 1)
	go func() {
		_, _, err := runArgs(t, ctx, "serve", "-addr", addr, "-store", dir, "-workers", "2")
		serveErr <- err
	}()
	waitForDaemon(t, ctx, addr, serveErr)

	plan := []string{"-quick", "-experiments", "fig2,eq1", "-scenarios", "paper,future-fab", "-addr", addr}

	out, _, err := runArgs(t, ctx, append([]string{"submit", "-watch"}, plan...)...)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if !strings.Contains(out, "done, 4 cells, 4 executed, 0 cached") {
		t.Errorf("first submit status wrong:\n%s", out)
	}

	out, _, err = runArgs(t, ctx, append([]string{"submit", "-watch", "-json"}, plan...)...)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	var st daemon.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("second submit did not print JSON: %v\n%s", err, out)
	}
	if st.Executed != 0 || st.Cached != 4 {
		t.Errorf("second submit executed %d cached %d, want 0/4", st.Executed, st.Cached)
	}
	if len(st.Cells) != 4 {
		t.Fatalf("status carries %d cells, want 4", len(st.Cells))
	}

	out, _, err = runArgs(t, ctx, "job", "-addr", addr, st.ID)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if !strings.Contains(out, st.ID+": done") {
		t.Errorf("job output wrong:\n%s", out)
	}

	cell := st.Cells[0]
	out, _, err = runArgs(t, ctx, "fetch", "-addr", addr, cell.Experiment+"/"+cell.Fingerprint)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !strings.Contains(out, cell.Fingerprint) {
		t.Errorf("fetch output does not render the artifact (fingerprint missing):\n%s", out)
	}
	if _, _, err := runArgs(t, ctx, "fetch", "-addr", addr, cell.Experiment+"/ffffffffffff"); err == nil {
		t.Error("fetch of a missing artifact succeeded")
	}

	out, _, err = runArgs(t, ctx, "status", "-addr", addr)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(out, "2 done") || !strings.Contains(out, "store: 4 records") {
		t.Errorf("status output wrong:\n%s", out)
	}

	if _, _, err := runArgs(t, ctx, "shutdown", "-addr", addr); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve exited %v after shutdown, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after shutdown")
	}
}

// waitForDaemon polls status until the daemon answers.
func waitForDaemon(t *testing.T, ctx context.Context, addr string, serveErr <-chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-serveErr:
			t.Fatalf("serve exited during startup: %v", err)
		default:
		}
		if _, _, err := runArgs(t, ctx, "status", "-addr", addr); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never answered status")
}

// gridArgs is the test grid: 3 topologies (2 planar families plus a
// larger hex) x 2 sigmas x 2 threshold scales = 12 cells, small
// devices so quick scale stays fast.
func gridArgs(storeDir string, extra ...string) []string {
	args := []string{
		"explore", "-quick", "-seed", "7", "-store", storeDir,
		"-generate", "topos=hex-1x2-q6,square-1x2-q6,hex-2x2-q6;sigmas=0.004,0.008;thresholds=0.5,1",
	}
	return append(args, extra...)
}

// frontierDoc mirrors the JSON the explorer emits, loosely: points stay
// raw maps so the test asserts on the wire names, not on Go structs.
type frontierDoc struct {
	Experiment   string           `json:"experiment"`
	GridSize     int              `json:"grid_size"`
	ParetoPoints int              `json:"pareto_points"`
	Points       []map[string]any `json:"points"`
}

func runExplore(t *testing.T, args []string) (stdout, stderr string) {
	t.Helper()
	out, errw, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("explore %v: %v\nstderr:\n%s", args, err, errw)
	}
	return out, errw
}

func parseFrontier(t *testing.T, raw string) frontierDoc {
	t.Helper()
	var f frontierDoc
	if err := json.Unmarshal([]byte(raw), &f); err != nil {
		t.Fatalf("frontier JSON does not parse: %v\n%s", err, raw)
	}
	return f
}

func TestExploreGridRunsAndCaches(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	out, errw := runExplore(t, gridArgs(dir, "-json"))
	if !strings.Contains(errw, "12-cell grid, 12 executed, 0 cached") {
		t.Errorf("first run summary = %q, want 12 executed", strings.TrimSpace(errw))
	}
	f := parseFrontier(t, out)
	if f.Experiment != "genyield" || f.GridSize != 12 || len(f.Points) != 12 {
		t.Fatalf("frontier identity off: experiment=%q grid=%d points=%d",
			f.Experiment, f.GridSize, len(f.Points))
	}
	if f.ParetoPoints < 1 {
		t.Fatal("no Pareto-optimal point on a 12-cell grid")
	}
	marked := 0
	for _, p := range f.Points {
		if p["pareto"] == true {
			marked++
		}
		if p["config_fingerprint"] == "" || p["scenario"] == "" {
			t.Errorf("point lacks provenance: %v", p)
		}
	}
	if marked != f.ParetoPoints {
		t.Errorf("pareto_points says %d, %d points are marked", f.ParetoPoints, marked)
	}

	// An immediate re-run serves every cell from the store and emits
	// byte-identical frontier JSON.
	out2, errw2 := runExplore(t, gridArgs(dir, "-json"))
	if !strings.Contains(errw2, "12-cell grid, 0 executed, 12 cached") {
		t.Errorf("re-run summary = %q, want 0 executed, 12 cached", strings.TrimSpace(errw2))
	}
	if out2 != out {
		t.Error("re-run frontier JSON differs from the first run's")
	}
}

func TestExploreShardsReproduceTheFrontier(t *testing.T) {
	whole := filepath.Join(t.TempDir(), "whole")
	unsharded, _ := runExplore(t, gridArgs(whole, "-json"))

	sharded := filepath.Join(t.TempDir(), "sharded")
	half, errw := runExplore(t, gridArgs(sharded, "-json", "-shard", "0/2"))
	if !strings.Contains(errw, "6 executed") || !strings.Contains(errw, "awaiting other shards") {
		t.Errorf("shard 0/2 summary = %q, want 6 executed and a missing-cells note", strings.TrimSpace(errw))
	}
	if f := parseFrontier(t, half); len(f.Points) != 6 {
		t.Errorf("shard 0/2 alone evaluated %d points, want its 6", len(f.Points))
	}
	full, errw2 := runExplore(t, gridArgs(sharded, "-json", "-shard", "1/2"))
	if !strings.Contains(errw2, "6 executed") {
		t.Errorf("shard 1/2 summary = %q, want 6 executed", strings.TrimSpace(errw2))
	}
	if full != unsharded {
		t.Error("shard 0/2 + 1/2 frontier is not byte-identical to the unsharded run's")
	}
}

func TestExploreAgainstDaemon(t *testing.T) {
	st := store.OpenMem()
	srv := daemon.New(daemon.Options{Store: st})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()

	args := []string{
		"explore", "-quick", "-seed", "7", "-addr", hs.URL,
		"-generate", "topos=hex-1x2-q6,square-1x2-q6;sigmas=0.004,0.008",
	}
	out, errw := runExplore(t, args)
	if !strings.Contains(errw, "daemon") {
		t.Errorf("summary %q does not name the daemon", strings.TrimSpace(errw))
	}
	if !strings.Contains(out, "Design-space frontier") {
		t.Errorf("daemon run did not render the frontier table:\n%s", out)
	}
}

func TestExploreListShowsHitsAfterRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	out, _ := runExplore(t, gridArgs(dir, "-list"))
	if !strings.Contains(out, "12 cells (grid 12), 0 store hits") {
		t.Errorf("cold -list = %q, want 0 hits", lastLine(out))
	}
	runExplore(t, gridArgs(dir))
	out, _ = runExplore(t, gridArgs(dir, "-list"))
	if !strings.Contains(out, "12 cells (grid 12), 12 store hits") {
		t.Errorf("warm -list = %q, want 12 hits", lastLine(out))
	}
}

func TestExploreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no-grid", []string{"explore", "-quick"}},
		{"bad-topo", []string{"explore", "-generate", "topos=moebius-2x2-q6"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := runArgs(t, context.Background(), tc.args...); err == nil {
				t.Fatalf("explore %v succeeded, want an error", tc.args)
			}
		})
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
