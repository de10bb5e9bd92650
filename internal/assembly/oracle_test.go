package assembly

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// oracleFabricate is Fabricate's former private die loop, kept as the
// reference the Survivors-based Fabricate must reproduce: chip-sampled
// frequencies, collision screening on the monolithic device, one error
// per chip edge, then the stable best-first sort.
func oracleFabricate(ctx context.Context, spec topo.ChipSpec, size int, cfg BatchConfig) (*Batch, error) {
	chip := topo.BuildChip(spec)
	dev := topo.MonolithicDevice(spec)
	checker := collision.NewChecker(dev, cfg.Params)
	edges := chip.G.Edges()
	dies, err := runner.MapLocal(ctx, size, cfg.Workers, runner.NewScratch(chip.N),
		func(l runner.Scratch, i int) *Chiplet {
			r := l.RNG.At(cfg.Seed, i)
			cfg.Fab.SampleChipInto(r, chip, l.Buf)
			if !checker.Free(l.Buf) {
				return nil
			}
			f := append([]float64(nil), l.Buf...)
			errs := make([]float64, len(edges))
			var sum float64
			for j, e := range edges {
				errs[j] = cfg.Det.Sample(r, f[e.U]-f[e.V])
				sum += errs[j]
			}
			avg := 0.0
			if len(edges) > 0 {
				avg = sum / float64(len(edges))
			}
			return &Chiplet{ID: i, Freq: f, EdgeErr: errs, AvgErr: avg}
		})
	if err != nil {
		return nil, err
	}
	b := &Batch{Spec: spec, Chip: chip, Size: size}
	for _, c := range dies {
		if c != nil {
			b.Free = append(b.Free, c)
		}
	}
	sort.SliceStable(b.Free, func(i, j int) bool {
		return b.Free[i].AvgErr < b.Free[j].AvgErr
	})
	return b, nil
}

func TestFabricateMatchesOracle(t *testing.T) {
	for _, spec := range []topo.ChipSpec{{DenseRows: 1, Width: 8}, {DenseRows: 2, Width: 8}, {DenseRows: 4, Width: 8}} {
		for _, workers := range []int{1, 8} {
			cfg := testBatchConfig(77)
			cfg.Workers = workers
			want, err := oracleFabricate(context.Background(), spec, 300, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fabricate(t, spec, 300, cfg)
			if len(want.Free) == 0 {
				t.Fatalf("%dq: the oracle batch has no survivors; pick a spec that yields", spec.Qubits())
			}
			if !reflect.DeepEqual(got.Free, want.Free) || got.Size != want.Size || got.Spec != want.Spec {
				t.Errorf("%dq, workers %d: batch differs from the oracle (%d vs %d survivors)",
					spec.Qubits(), workers, len(got.Free), len(want.Free))
			}
		}
	}
}

// stableSortBin is the bin order Fabricate produced with
// sort.SliceStable on AvgErr over a bin in die order, kept as the
// oracle for sortBin.
func stableSortBin(bin []*Chiplet) {
	sort.SliceStable(bin, func(i, j int) bool { return bin[i].AvgErr < bin[j].AvgErr })
}

func binIDs(bin []*Chiplet) []int {
	ids := make([]int, len(bin))
	for i, c := range bin {
		ids[i] = c.ID
	}
	return ids
}

// TestSortBinMatchesStableSort: on real bins over several seeds and
// specs, and on synthetic bins full of AvgErr ties, sortBin must give
// the stable AvgErr sort's order of the bin in die order.
func TestSortBinMatchesStableSort(t *testing.T) {
	check := func(name string, bin []*Chiplet) {
		t.Helper()
		inDieOrder := slices.Clone(bin)
		sort.Slice(inDieOrder, func(i, j int) bool { return inDieOrder[i].ID < inDieOrder[j].ID })
		want := slices.Clone(inDieOrder)
		stableSortBin(want)
		got := slices.Clone(inDieOrder)
		slices.Reverse(got) // sortBin must not lean on its input order
		sortBin(got)
		if !slices.Equal(binIDs(got), binIDs(want)) {
			t.Errorf("%s: sortBin order %v, stable sort %v", name, binIDs(got), binIDs(want))
		}
	}
	for _, spec := range []topo.ChipSpec{{DenseRows: 1, Width: 8}, {DenseRows: 2, Width: 8}, {DenseRows: 2, Width: 12}} {
		for _, seed := range []int64{1, 7, 77, 2024} {
			b := fabricate(t, spec, 200, testBatchConfig(seed))
			if len(b.Free) < 2 {
				t.Fatalf("%dq seed %d: %d survivors; pick a spec that yields", spec.Qubits(), seed, len(b.Free))
			}
			check(fmt.Sprintf("%dq/seed=%d", spec.Qubits(), seed), b.Free)
		}
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		bin := make([]*Chiplet, 40)
		for i := range bin {
			bin[i] = &Chiplet{ID: 3 * i, AvgErr: float64(r.Intn(5)) / 100}
		}
		check(fmt.Sprintf("ties/%d", trial), bin)
	}
}
