package eval

import (
	"context"
	"math"
	"reflect"
	"testing"

	"chipletqc/internal/assembly"
	"chipletqc/internal/collision"
	"chipletqc/internal/noise"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// The monolithic populations of Figs. 1, 9 and 10 used to run their own
// per-die loops; they now share assembly.Survivors. The two loops are
// kept here verbatim as reference oracles, and the tests below require
// the shared scan to reproduce them exactly.

// oracleMonoPopulation is the former Fig. 1 / Fig. 9 loop: every die of
// the batch, E_avg per collision-free die in die order, plus the
// collision-free yield.
func oracleMonoPopulation(ctx context.Context, c *Config, spec topo.ChipSpec, batch int, seedOffset int64) (eavgs []float64, yld float64, err error) {
	scn := c.scn()
	dev := topo.MonolithicDevice(spec)
	checker := collision.NewChecker(dev, scn.Params)
	det := c.det()
	edges := dev.G.Edges()
	campaign := c.Seed + seedOffset
	samples, err := runner.MapLocal(ctx, batch, c.Workers,
		runner.NewScratch(dev.N),
		func(l runner.Scratch, i int) float64 {
			r := l.RNG.At(campaign, i)
			f := l.Buf
			scn.Fab.SampleInto(r, dev, f)
			if !checker.Free(f) {
				return math.NaN()
			}
			var sum float64
			for _, e := range edges {
				sum += det.Sample(r, f[e.U]-f[e.V])
			}
			if len(edges) == 0 {
				return 0
			}
			return sum / float64(len(edges))
		})
	if err != nil {
		return nil, 0, err
	}
	for _, s := range samples {
		if !math.IsNaN(s) {
			eavgs = append(eavgs, s)
		}
	}
	if batch > 0 {
		yld = float64(len(eavgs)) / float64(batch)
	}
	return eavgs, yld, nil
}

// oracleMonoInstances is the former Fig. 10 loop: a chunked scan for
// the first `want` collision-free devices with their error assignments.
func oracleMonoInstances(ctx context.Context, cfg Config, dev *topo.Device, want int, seedOffset int64, det *noise.DetuningModel) ([]noise.Assignment, error) {
	if want <= 0 || cfg.MonoBatch <= 0 {
		return nil, ctx.Err()
	}
	scn := cfg.scn()
	checker := collision.NewChecker(dev, scn.Params)
	link := scn.Link
	campaign := cfg.Seed + seedOffset
	chunk := runner.Workers(cfg.Workers, cfg.MonoBatch) * 32

	var out []noise.Assignment
	for lo := 0; lo < cfg.MonoBatch && len(out) < want; lo += chunk {
		hi := lo + chunk
		if hi > cfg.MonoBatch {
			hi = cfg.MonoBatch
		}
		found, err := runner.MapLocal(ctx, hi-lo, cfg.Workers,
			runner.NewScratch(dev.N),
			func(l runner.Scratch, j int) *noise.Assignment {
				r := l.RNG.At(campaign, lo+j)
				scn.Fab.SampleInto(r, dev, l.Buf)
				if !checker.Free(l.Buf) {
					return nil
				}
				a := noise.Assign(r, dev, l.Buf, det, link)
				return &a
			})
		if err != nil {
			return nil, err
		}
		for _, a := range found {
			if a != nil {
				out = append(out, *a)
				if len(out) == want {
					break
				}
			}
		}
	}
	return out, nil
}

// survivingAssignments is Fig. 10's monolithic population through the
// shared scan.
func survivingAssignments(ctx context.Context, cfg Config, dev *topo.Device, want int, seedOffset int64) ([]noise.Assignment, error) {
	bc := cfg.batchConfig(seedOffset)
	return assembly.Survivors(ctx, dev, cfg.MonoBatch, want, bc, assign(dev, bc.Det, cfg.scn().Link))
}

func TestSurvivorsMatchMonoPopulationOracle(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := QuickConfig(21)
		cfg.Workers = workers
		for _, q := range []int{20, 60, 500} {
			spec := topo.MonolithicSpec(q)
			want, wantYield, err := oracleMonoPopulation(context.Background(), &cfg, spec, 300, 7)
			if err != nil {
				t.Fatal(err)
			}
			dev := topo.MonolithicDevice(spec)
			bc := cfg.batchConfig(7)
			got, err := assembly.Survivors(context.Background(), dev, 300, 300, bc, eavg(dev, bc.Det))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers %d, %dq: E_avg population differs from the oracle (%d vs %d survivors)",
					workers, q, len(got), len(want))
			}
			if g := float64(len(got)) / 300; g != wantYield {
				t.Errorf("workers %d, %dq: yield %v, oracle %v", workers, q, g, wantYield)
			}
		}
	}
}

// Fig. 1 reads its rows straight off the shared scan; they must equal
// the oracle population's yield and mean.
func TestFig1MatchesMonoPopulationOracle(t *testing.T) {
	cfg := tinyConfig(22, 3)
	rows := runFig1(t, cfg)
	for i, cs := range cfg.catalog() {
		eavgs, yld, err := oracleMonoPopulation(context.Background(), &cfg, cs.Spec, cfg.ChipletBatch, seedOffFig1Population+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].Yield != yld || !floatsEqualOrBothNaN(rows[i].EAvg, meanOrNaN(eavgs)) {
			t.Errorf("%dq: row %+v, oracle yield %v E_avg %v", cs.Qubits, rows[i], yld, meanOrNaN(eavgs))
		}
	}
}

func TestSurvivorsMatchMonoInstancesOracle(t *testing.T) {
	const batch = 600
	dev := topo.MonolithicDevice(topo.MonolithicSpec(20))
	for _, workers := range []int{1, 8} {
		cfg := QuickConfig(23)
		cfg.MonoBatch = batch
		cfg.Workers = workers
		chunk := runner.Workers(workers, batch) * 32
		all, err := oracleMonoInstances(context.Background(), cfg, dev, batch, 5, cfg.det())
		if err != nil {
			t.Fatal(err)
		}
		if len(all) <= chunk || len(all) >= batch {
			t.Fatalf("workers %d: %d survivors of %d; the cases need more than one chunk (%d) and fewer than the batch",
				workers, len(all), batch, chunk)
		}
		// 0, 1, exactly one chunk, more than survive (chunked and
		// single-pass scans), and the whole batch.
		for _, want := range []int{0, 1, chunk, len(all) + 1, batch - 1, batch, batch + 1} {
			oracle, err := oracleMonoInstances(context.Background(), cfg, dev, want, 5, cfg.det())
			if err != nil {
				t.Fatal(err)
			}
			got, err := survivingAssignments(context.Background(), cfg, dev, want, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != min(want, len(all)) {
				t.Errorf("workers %d, want %d: %d instances, expected %d", workers, want, len(got), min(want, len(all)))
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Errorf("workers %d, want %d: instances differ from the oracle", workers, want)
			}
		}
	}
}

func TestMonoInstancesZeroYield(t *testing.T) {
	// A 500q monolithic device at laser-tuned precision yields nothing.
	dev := topo.MonolithicDevice(topo.MonolithicSpec(500))
	for _, workers := range []int{1, 8} {
		cfg := QuickConfig(11)
		cfg.MonoBatch = 50
		cfg.Workers = workers
		got, err := survivingAssignments(context.Background(), cfg, dev, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := oracleMonoInstances(context.Background(), cfg, dev, 3, 1, cfg.det())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 || len(oracle) != 0 {
			t.Errorf("workers %d: expected zero instances for 500q, got %d (oracle %d)", workers, len(got), len(oracle))
		}
	}
}

// A cancelled context stops the scan with ctx.Err(), including the
// empty-scan early return.
func TestSurvivorsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig(24)
	for _, want := range []int{0, 3, cfg.MonoBatch} {
		if _, err := survivingAssignments(ctx, cfg, topo.MonolithicDevice(topo.MonolithicSpec(20)), want, 1); err != context.Canceled {
			t.Errorf("want %d: err = %v, want context.Canceled", want, err)
		}
	}
}
