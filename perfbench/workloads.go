package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/scenario"
)

// opOut is what one op hands back to the measuring loop.
type opOut struct {
	digest string // hash of the op's byte-stable outputs
	// trials is the Monte Carlo trials the op's artifacts report, and
	// trialWall the wall seconds that computed them (0: the op's wall).
	trials    int
	trialWall float64
	// jobs are the op's daemon jobs, for the service workload.
	jobs []jobSample
	// failed counts requests inside the op whose output was wrong.
	failed, attempted int
}

// workload is one benchmark workload. setup prepares everything the
// first op needs; op runs one unit of work, traced when s is non-nil,
// and releases whatever it started.
type workload interface {
	setup(ctx context.Context) error
	op(ctx context.Context, s *scope) (opOut, error)
}

func newWorkload(name string, seed int64, workers int, root string) (workload, error) {
	switch name {
	case "repro-quick":
		return &reproQuick{seed: seed, workers: workers}, nil
	case "yield-mc":
		return &yieldMC{seed: seed, workers: workers}, nil
	case "daemon-campaign":
		return &daemonCampaign{seed: seed, workers: workers, root: root}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want repro-quick, yield-mc or daemon-campaign)", name)
}

// digester hashes artifact text renderings, which exclude wall time and
// are byte-stable for a given config.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(a experiment.Artifact) error { return a.WriteText(d.h) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// step is one experiment of an op under one config; label names its
// span and per-layer metric.
type step struct {
	label string
	exp   experiment.Experiment
	cfg   eval.Config
}

// runSteps runs the steps in order, hashing every artifact.
func runSteps(ctx context.Context, s *scope, steps []step) (opOut, error) {
	d := newDigester()
	var out opOut
	for _, st := range steps {
		a, err := runExperiment(ctx, s, st.label, st.exp, st.cfg)
		if err != nil {
			return out, err
		}
		if a.Payload == nil || len(a.Payload.Rows) == 0 || a.Fingerprint != experiment.Fingerprint(st.cfg) {
			return out, fmt.Errorf("%s: empty or mis-keyed artifact", st.label)
		}
		if err := d.add(a); err != nil {
			return out, err
		}
		out.trials += a.Trials
	}
	out.digest = d.sum()
	return out, nil
}

// reproQuick is the whole experiment registry in paper order under the
// paper scenario at `figures -quick` scale.
type reproQuick struct {
	seed    int64
	workers int
	steps   []step
}

func (w *reproQuick) setup(ctx context.Context) error {
	cfg := eval.QuickConfigFor(scenario.Paper(), w.seed)
	cfg.MaxQubits = 200
	cfg.Workers = w.workers
	w.steps = w.steps[:0]
	for _, e := range experiment.All() {
		w.steps = append(w.steps, step{label: e.Name(), exp: e, cfg: cfg})
	}
	return ctx.Err()
}

func (w *reproQuick) op(ctx context.Context, s *scope) (opOut, error) {
	return runSteps(ctx, s, w.steps)
}

// yieldMC is the yield Monte Carlo stack: fig4, fig8 and fig9 under the
// paper scenario at a fixed 2000-trial batch, then fig4 and fig8 under
// tight-thresholds at quick scale, whose importance estimator runs to
// its relative-precision target near the yield cliff.
type yieldMC struct {
	seed    int64
	workers int
	steps   []step
}

func (w *yieldMC) setup(ctx context.Context) error {
	paper := eval.ConfigFor(scenario.Paper(), w.seed)
	paper.MonoBatch, paper.ChipletBatch = 2000, 2000
	paper.Workers = w.workers
	tight, err := scenario.Lookup(scenario.TightThresholdsName)
	if err != nil {
		return err
	}
	tcfg := eval.QuickConfigFor(tight, w.seed)
	tcfg.Workers = w.workers
	w.steps = w.steps[:0]
	for _, st := range []struct {
		label, name string
		cfg         eval.Config
	}{
		{"fig4", "fig4", paper}, {"fig8", "fig8", paper}, {"fig9", "fig9", paper},
		{"tight_fig4", "fig4", tcfg}, {"tight_fig8", "fig8", tcfg},
	} {
		e, ok := experiment.Lookup(st.name)
		if !ok {
			return fmt.Errorf("experiment %q is not registered", st.name)
		}
		w.steps = append(w.steps, step{label: st.label, exp: e, cfg: st.cfg})
	}
	return ctx.Err()
}

func (w *yieldMC) op(ctx context.Context, s *scope) (opOut, error) {
	return runSteps(ctx, s, w.steps)
}
