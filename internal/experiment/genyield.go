package experiment

import (
	"context"

	"chipletqc/internal/eval"
	"chipletqc/internal/report"
)

// GenYieldName is the registry name of the generated-device yield
// experiment driven by internal/generate scenarios and `chipletqc
// explore`.
const GenYieldName = "genyield"

// Column headers of the genyield payload table, exported so frontier
// builders (internal/generate) can read stored artifacts by name
// instead of by position.
const (
	GenYieldColDevice    = "device"
	GenYieldColFamily    = "family"
	GenYieldColQubits    = "qubits"
	GenYieldColChips     = "chips"
	GenYieldColLinks     = "links"
	GenYieldColYield     = "yield"
	GenYieldColTrials    = "trials"
	GenYieldColCILo      = "ci_lo"
	GenYieldColCIHi      = "ci_hi"
	GenYieldColEstimator = "estimator"
	GenYieldColESS       = "ess"
)

func init() {
	Register(New(GenYieldName, "collision-free yield of the scenario's generated device",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			p, err := eval.GenYield(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			est := p.Result.Estimator
			if est == "" {
				est = "inline"
			}
			tb := report.New("Generated-device collision-free yield",
				GenYieldColDevice, GenYieldColFamily, GenYieldColQubits, GenYieldColChips,
				GenYieldColLinks, GenYieldColYield, GenYieldColTrials, GenYieldColCILo,
				GenYieldColCIHi, GenYieldColEstimator, GenYieldColESS)
			tb.Add(p.Device, p.Family, p.Qubits, p.Chips, p.Links,
				report.F(p.Result.Fraction(), 6), p.Result.Batch,
				report.F(p.Result.CILo, 6), report.F(p.Result.CIHi, 6),
				est, report.F(p.Result.ESS, 1))
			return tb, p.Result.Batch, nil
		}))
}
