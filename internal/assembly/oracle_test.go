package assembly

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
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

// oracleAssemble is Assemble before the seam check and the stop count:
// every placement attempt runs the full MCM checker on the composed
// frequencies, and the run builds every module the batch allows. Its
// modules carry no shared link order; oracleEAvg sums them the old way.
func oracleAssemble(b *Batch, grid mcm.Grid, cfg AssembleConfig) ([]*AssembledMCM, Stats) {
	dev := mcm.MustBuild(grid)
	checker := collision.NewChecker(dev, cfg.Params)
	chips := grid.Chips()
	nPer := b.Chip.N
	r := rand.New(rand.NewSource(cfg.Seed))
	var linkEdges []graph.Edge
	for _, e := range dev.G.Edges() {
		if dev.Link[e] {
			linkEdges = append(linkEdges, e)
		}
	}
	bin := append([]*Chiplet(nil), b.Free...)
	var out []*AssembledMCM
	var leftover []*Chiplet
	freq := make([]float64, dev.N)
	for len(bin) >= chips {
		subset := append([]*Chiplet(nil), bin[:chips]...)
		placed := false
		for attempt := 0; attempt <= cfg.MaxReshuffles; attempt++ {
			if attempt > 0 {
				r.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
			}
			for c, m := range subset {
				copy(freq[c*nPer:(c+1)*nPer], m.Freq)
			}
			if checker.Free(freq) {
				placed = true
				break
			}
		}
		if !placed {
			leftover = append(leftover, bin[0])
			bin = bin[1:]
			continue
		}
		m := &AssembledMCM{Grid: grid, Members: subset, Freq: append([]float64(nil), freq...),
			LinkErr: map[graph.Edge]float64{}, nCouplings: dev.G.M()}
		for _, member := range subset {
			for _, e := range member.EdgeErr {
				m.chipErrSum += e
			}
		}
		for _, e := range linkEdges {
			m.LinkErr[e] = cfg.Link.Sample(r)
		}
		out = append(out, m)
		bin = bin[chips:]
	}
	leftover = append(leftover, bin...)
	linked := len(dev.LinkedQubits())
	st := Stats{Grid: grid, BatchSize: b.Size, FreeChiplets: len(b.Free), MCMs: len(out),
		ChipsUsed: len(out) * chips, Leftover: len(leftover), LinkedQubits: linked, ChipletYield: b.Yield()}
	if b.Size > 0 {
		st.AssemblyYield = float64(st.ChipsUsed) / float64(b.Size)
	}
	st.PostAssemblyYield = st.AssemblyYield * BondSurvival(linked, cfg.BondFailureScale)
	return out, st
}

// oracleEAvg is EAvg as it was: the chip error sum plus the link errors
// in freshly sorted key order.
func oracleEAvg(m *AssembledMCM) float64 {
	keys := slices.Collect(maps.Keys(m.LinkErr))
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].U < keys[j].U || (keys[i].U == keys[j].U && keys[i].V < keys[j].V)
	})
	sum := m.chipErrSum
	for _, e := range keys {
		sum += m.LinkErr[e]
	}
	return sum / float64(m.nCouplings)
}

// sameModules reports the first difference between Assemble's modules
// and the oracle's: members, frequencies, link errors and E_avg bits.
func sameModules(got, want []*AssembledMCM) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d modules, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.Grid != w.Grid || !slices.Equal(binIDs(g.Members), binIDs(w.Members)):
			return fmt.Errorf("module %d: members %v, oracle %v", i, binIDs(g.Members), binIDs(w.Members))
		case !slices.Equal(g.Freq, w.Freq):
			return fmt.Errorf("module %d: frequencies differ", i)
		case !maps.Equal(g.LinkErr, w.LinkErr):
			return fmt.Errorf("module %d: link errors differ", i)
		case math.Float64bits(g.EAvg()) != math.Float64bits(oracleEAvg(w)):
			return fmt.Errorf("module %d: EAvg %v, oracle %v", i, g.EAvg(), oracleEAvg(w))
		}
	}
	return nil
}

// TestAssembleMatchesOracle: the seam-only re-check gives the modules
// and Stats of a full check per attempt, over three chip designs, four
// seeds, no reshuffles and the paper's 100. The loose batches are
// fabricated under half the Table I widths but assembled under the full
// ones, so some dies fail their own criteria at assembly and their
// subsets time out through every shuffle.
func TestAssembleMatchesOracle(t *testing.T) {
	loose := collision.DefaultParams()
	loose.T1, loose.T2, loose.T3 = loose.T1/2, loose.T2/2, loose.T3/2
	loose.T5, loose.T6, loose.T7 = loose.T5/2, loose.T6/2, loose.T7/2
	cases := []struct {
		name       string
		spec       topo.ChipSpec
		rows, cols int
		fabP       collision.Params
	}{
		{"10q-2x3", topo.ChipSpec{DenseRows: 1, Width: 8}, 2, 3, collision.DefaultParams()},
		{"20q-2x2", topo.ChipSpec{DenseRows: 2, Width: 8}, 2, 2, collision.DefaultParams()},
		{"40q-1x2", topo.ChipSpec{DenseRows: 4, Width: 8}, 1, 2, collision.DefaultParams()},
		{"20q-2x2-loose", topo.ChipSpec{DenseRows: 2, Width: 8}, 2, 2, loose},
	}
	timeouts := 0
	for _, bc := range cases {
		grid := mcm.Grid{Rows: bc.rows, Cols: bc.cols, Spec: bc.spec}
		chipChecker := collision.NewChecker(topo.MonolithicDevice(bc.spec), collision.DefaultParams())
		for _, seed := range []int64{1, 7, 77, 2024} {
			fcfg := testBatchConfig(seed)
			fcfg.Params = bc.fabP
			b := fabricate(t, bc.spec, 300, fcfg)
			if bc.fabP == loose {
				failing := 0
				for _, c := range b.Free {
					if !chipChecker.Free(c.Freq) {
						failing++
					}
				}
				if failing == 0 {
					t.Fatalf("%s seed %d: no die fails its own criteria at assembly; loosen the fab further", bc.name, seed)
				}
			}
			for _, reshuffles := range []int{0, 100} {
				name := fmt.Sprintf("%s/seed=%d/reshuffles=%d", bc.name, seed, reshuffles)
				acfg := testAssembleConfig(seed + 1)
				acfg.MaxReshuffles = reshuffles
				want, wantSt := oracleAssemble(b, grid, acfg)
				got, gotSt := assemble(t, b, grid, acfg)
				if len(want) == 0 {
					t.Fatalf("%s: the oracle builds no module; pick a batch that assembles", name)
				}
				if err := sameModules(got, want); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if gotSt != wantSt {
					t.Errorf("%s: stats %+v, oracle %+v", name, gotSt, wantSt)
				}
				if wantSt.Leftover >= grid.Chips() { // more than the unplaceable tail
					timeouts++
				}
				for _, k := range []int{1, len(want) / 2, len(want) - 1} {
					if k < 1 {
						continue
					}
					acfg.Want = k
					limited, st := assemble(t, b, grid, acfg)
					if err := sameModules(limited, want[:k]); err != nil || st.MCMs != k {
						t.Errorf("%s: a run stopped at %d modules (stats %d) is not the full run's prefix: %v", name, k, st.MCMs, err)
					}
				}
			}
		}
	}
	if timeouts == 0 {
		t.Error("no case timed out a subset; the timeout path went untested")
	}
}
