package eval

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"chipletqc/internal/scenario"
)

// The scenario refactor must be a pure re-plumbing of the default path:
// running under the registered "paper" scenario has to reproduce the
// checked-in goldens byte-for-byte, not merely within the tolerance
// bands of the TestGolden harness. Fig. 4 and Fig. 8 cover the yield
// Monte Carlo, batch fabrication, assembly and link sampling; Figs. 9
// and 10 add the monolithic survivor populations, E_avg sums and
// compiled log fidelities. Byte equality is platform-stable in
// practice — if a platform ever disagrees here while TestGolden
// passes, suspect FP contraction, not the plumbing.
func TestGoldenPaperScenarioByteIdentical(t *testing.T) {
	if *update {
		t.Skip("-update regenerates the files this test compares against")
	}
	cfg := goldenConfig()

	// Fig. 4, marshalled exactly as the golden harness writes it.
	cells := runFig4(t, cfg, 120)
	got4 := make([]goldenFig4Cell, len(cells))
	for i, c := range cells {
		gc := goldenFig4Cell{Step: c.Step, Sigma: c.Sigma}
		for _, p := range c.Points {
			gc.Points = append(gc.Points, goldenPoint{Qubits: p.Qubits, Yield: p.Yield})
		}
		got4[i] = gc
	}
	compareGoldenBytes(t, "fig4", got4)

	// Fig. 8: the full fabricate/assemble/mono pipeline.
	res := runFig8(t, cfg)
	got8 := goldenFig8{
		Chiplt: map[string]float64{},
		Improv: map[string]float64{},
		Excl:   append([]int{}, res.ExcludedChiplets...),
	}
	for q, y := range res.ChipletYields {
		got8.Chiplt[jsonKey(q)] = y
	}
	for q, v := range res.Improvements {
		got8.Improv[jsonKey(q)] = v
	}
	for _, p := range res.Points {
		got8.Points = append(got8.Points, goldenFig8Point{
			Chiplet: p.Grid.Spec.Qubits(), Rows: p.Grid.Rows, Cols: p.Grid.Cols,
			Qubits: p.Qubits, ChipletYield: p.ChipletYield,
			MCMYield: p.MCMYield, MCMYield100x: p.MCMYield100x, MonoYield: p.MonoYield,
		})
	}
	compareGoldenBytes(t, "fig8", got8)

	// Figs. 9 and 10: the wafer-scaled fabricate/assemble path against
	// the KGD-screened monolithic populations.
	compareGoldenBytes(t, "fig9", fig9Golden(runFig9(t, cfg)))
	compareGoldenBytes(t, "fig10", goldenFig10(t, cfg))
}

func jsonKey(q int) string {
	b, _ := json.Marshal(q)
	return string(b)
}

// compareGoldenBytes marshals got the way the golden harness does and
// requires byte equality with the checked-in file.
func compareGoldenBytes(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	data = append(data, '\n')
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("read golden %s: %v", name, err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s under the paper scenario is not byte-identical to the golden file "+
			"(the scenario refactor moved a draw on the default path)", name)
	}
}

// An explicit paper scenario, a nil scenario, and a freshly composed
// paper value must all produce the same draws — the scenario is pure
// plumbing, not a third RNG input.
func TestNilAndExplicitPaperScenarioAgree(t *testing.T) {
	base := goldenConfig()

	nilCfg := base
	nilCfg.Scenario = nil

	fresh := scenario.Paper()
	freshCfg := base
	freshCfg.Scenario = &fresh

	want := runFig4(t, base, 80)
	for name, cfg := range map[string]Config{"nil": nilCfg, "fresh-copy": freshCfg} {
		if got := runFig4(t, cfg, 80); !reflect.DeepEqual(got, want) {
			t.Errorf("%s scenario config diverged from the explicit paper scenario", name)
		}
	}
}

// Non-paper scenarios must actually change the physics: identical seeds
// and scale, different collision screening, different yields.
func TestScenariosChangeResults(t *testing.T) {
	paperCfg := goldenConfig()
	relaxed := scenario.MustLookup(scenario.RelaxedThresholdsName)
	relaxedCfg := goldenConfig()
	relaxedCfg.Scenario = &relaxed

	p := runFig4(t, paperCfg, 80)
	r := runFig4(t, relaxedCfg, 80)
	if reflect.DeepEqual(p, r) {
		t.Fatal("relaxed-thresholds reproduced the paper Fig. 4 exactly; the scenario is not reaching the engine")
	}
	// Halved collision windows can only help yield: check the laser-
	// tuned 0.06-step cell point-wise.
	for ci := range p {
		if p[ci].Step != 0.06 || p[ci].Sigma != 0.014 {
			continue
		}
		for pi := range p[ci].Points {
			pp, rp := p[ci].Points[pi], r[ci].Points[pi]
			if rp.Yield < pp.Yield {
				t.Errorf("relaxed thresholds lowered yield at %dq: %v -> %v",
					pp.Qubits, pp.Yield, rp.Yield)
			}
		}
	}
}
