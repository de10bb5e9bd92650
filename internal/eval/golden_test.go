package eval

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// The golden-figure regression harness replays the Fig. 4/8/9/10
// pipelines at pinned seeds and reduced scale against checked-in
// testdata/golden_*.json snapshots. Per-metric tolerances absorb
// last-bit floating-point divergence across platforms (e.g. FMA
// contraction) while still catching any behavioural change to the
// samplers, checkers, or aggregation.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/eval -run TestGolden -update

var update = flag.Bool("update", false, "regenerate golden figure files")

// Per-metric tolerances.
const (
	tolYield    = 0.02 // absolute, on [0,1] yields
	tolEAvgRel  = 0.05 // relative, on E_avg values and ratios
	tolImpRel   = 0.10 // relative, on Fig. 8 improvement ratios
	tolLogRatio = 0.05 // absolute, on Fig. 10 log fidelity ratios
)

// goldenConfig pins the regression scale and seed explicitly (rather
// than through QuickConfig) so unrelated default changes never silently
// reshape the goldens. The device world is the registered "paper"
// scenario — the goldens double as the proof that the scenario
// refactor re-plumbed the default path without moving a single draw
// (see golden_scenario_test.go for the byte-exact variant).
func goldenConfig() Config {
	paper := scenario.Paper()
	return Config{
		Scenario:     &paper,
		Seed:         424242,
		MonoBatch:    400,
		ChipletBatch: 300,
		MaxQubits:    160,
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".json")
}

// loadOrUpdateGolden regenerates the golden file under -update, then
// unmarshals it into want.
func loadOrUpdateGolden[T any](t *testing.T, name string, got T, want *T) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to generate): %v", path, err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatalf("unmarshal %s: %v", path, err)
	}
}

// approx fails unless got is within tol of want (absolute).
func approx(t *testing.T, metric string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", metric, got, want, tol)
	}
}

// approxRel fails unless got is within rel*|want| of want (with a small
// absolute floor for near-zero values).
func approxRel(t *testing.T, metric string, got, want, rel float64) {
	t.Helper()
	tol := rel * math.Abs(want)
	if tol < 1e-9 {
		tol = 1e-9
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (rel tol %v)", metric, got, want, rel)
	}
}

// fin boxes a float for JSON, mapping NaN/Inf to nil (encoding/json
// rejects non-finite values).
func fin(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

type goldenPoint struct {
	Qubits int     `json:"qubits"`
	Yield  float64 `json:"yield"`
}

type goldenFig4Cell struct {
	Step   float64       `json:"step"`
	Sigma  float64       `json:"sigma"`
	Points []goldenPoint `json:"points"`
}

func TestGoldenFig4(t *testing.T) {
	cfg := goldenConfig()
	cells := runFig4(t, cfg, 120)
	got := make([]goldenFig4Cell, len(cells))
	for i, c := range cells {
		gc := goldenFig4Cell{Step: c.Step, Sigma: c.Sigma}
		for _, p := range c.Points {
			gc.Points = append(gc.Points, goldenPoint{Qubits: p.Qubits, Yield: p.Yield})
		}
		got[i] = gc
	}

	var want []goldenFig4Cell
	loadOrUpdateGolden(t, "fig4", got, &want)
	if len(got) != len(want) {
		t.Fatalf("cell count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Step != w.Step || g.Sigma != w.Sigma || len(g.Points) != len(w.Points) {
			t.Fatalf("cell %d shape (%g, %g, %d pts) != golden (%g, %g, %d pts)",
				i, g.Step, g.Sigma, len(g.Points), w.Step, w.Sigma, len(w.Points))
		}
		for j := range w.Points {
			if g.Points[j].Qubits != w.Points[j].Qubits {
				t.Fatalf("cell %d point %d qubits = %d, want %d",
					i, j, g.Points[j].Qubits, w.Points[j].Qubits)
			}
			approx(t, fmt.Sprintf("fig4 (%g, %g) %dq yield", w.Step, w.Sigma, w.Points[j].Qubits),
				g.Points[j].Yield, w.Points[j].Yield, tolYield)
		}
	}
}

type goldenFig8 struct {
	Points []goldenFig8Point  `json:"points"`
	Chiplt map[string]float64 `json:"chiplet_yields"`
	Improv map[string]float64 `json:"improvements"`
	Excl   []int              `json:"excluded_chiplets"`
}

type goldenFig8Point struct {
	Chiplet      int     `json:"chiplet"`
	Rows         int     `json:"rows"`
	Cols         int     `json:"cols"`
	Qubits       int     `json:"qubits"`
	ChipletYield float64 `json:"chiplet_yield"`
	MCMYield     float64 `json:"mcm_yield"`
	MCMYield100x float64 `json:"mcm_yield_100x"`
	MonoYield    float64 `json:"mono_yield"`
}

func TestGoldenFig8(t *testing.T) {
	res := runFig8(t, goldenConfig())
	got := goldenFig8{
		Chiplt: map[string]float64{},
		Improv: map[string]float64{},
		Excl:   append([]int{}, res.ExcludedChiplets...),
	}
	for q, y := range res.ChipletYields {
		got.Chiplt[fmt.Sprint(q)] = y
	}
	for q, v := range res.Improvements {
		got.Improv[fmt.Sprint(q)] = v
	}
	for _, p := range res.Points {
		got.Points = append(got.Points, goldenFig8Point{
			Chiplet: p.Grid.Spec.Qubits(), Rows: p.Grid.Rows, Cols: p.Grid.Cols,
			Qubits: p.Qubits, ChipletYield: p.ChipletYield,
			MCMYield: p.MCMYield, MCMYield100x: p.MCMYield100x, MonoYield: p.MonoYield,
		})
	}

	var want goldenFig8
	loadOrUpdateGolden(t, "fig8", got, &want)
	if len(got.Points) != len(want.Points) {
		t.Fatalf("point count = %d, want %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		g, w := got.Points[i], want.Points[i]
		id := fmt.Sprintf("fig8 %dq %dx%d", w.Chiplet, w.Rows, w.Cols)
		if g.Chiplet != w.Chiplet || g.Rows != w.Rows || g.Cols != w.Cols || g.Qubits != w.Qubits {
			t.Fatalf("%s: system identity changed: %+v vs %+v", id, g, w)
		}
		approx(t, id+" chiplet yield", g.ChipletYield, w.ChipletYield, tolYield)
		approx(t, id+" mcm yield", g.MCMYield, w.MCMYield, tolYield)
		approx(t, id+" mcm yield 100x", g.MCMYield100x, w.MCMYield100x, tolYield)
		approx(t, id+" mono yield", g.MonoYield, w.MonoYield, tolYield)
	}
	for q, wy := range want.Chiplt {
		approx(t, "fig8 chiplet "+q+" yield", got.Chiplt[q], wy, tolYield)
	}
	if len(got.Improv) != len(want.Improv) {
		t.Errorf("improvement count = %d, want %d", len(got.Improv), len(want.Improv))
	}
	for q, wv := range want.Improv {
		approxRel(t, "fig8 improvement "+q, got.Improv[q], wv, tolImpRel)
	}
}

type goldenFig9Cell struct {
	Chiplet int      `json:"chiplet"`
	Rows    int      `json:"rows"`
	Cols    int      `json:"cols"`
	Ratio   *float64 `json:"ratio"` // nil when the monolithic counterpart had zero yield
}

// fig9Golden reduces Fig. 9 cells to the golden file's records.
func fig9Golden(res map[string][]Fig9Cell) map[string][]goldenFig9Cell {
	got := map[string][]goldenFig9Cell{}
	for _, name := range Fig9Ratios {
		for _, c := range res[name] {
			got[name] = append(got[name], goldenFig9Cell{
				Chiplet: c.Grid.Spec.Qubits(), Rows: c.Grid.Rows, Cols: c.Grid.Cols,
				Ratio: fin(c.Ratio),
			})
		}
	}
	return got
}

func TestGoldenFig9(t *testing.T) {
	got := fig9Golden(runFig9(t, goldenConfig()))

	var want map[string][]goldenFig9Cell
	loadOrUpdateGolden(t, "fig9", got, &want)
	for _, name := range Fig9Ratios {
		g, w := got[name], want[name]
		if len(g) != len(w) {
			t.Fatalf("%s: cell count = %d, want %d", name, len(g), len(w))
		}
		for i := range w {
			id := fmt.Sprintf("fig9 %s %dq %dx%d", name, w[i].Chiplet, w[i].Rows, w[i].Cols)
			if g[i].Chiplet != w[i].Chiplet || g[i].Rows != w[i].Rows || g[i].Cols != w[i].Cols {
				t.Fatalf("%s: system identity changed", id)
			}
			if (g[i].Ratio == nil) != (w[i].Ratio == nil) {
				t.Errorf("%s: mono availability flipped", id)
				continue
			}
			if w[i].Ratio != nil {
				approxRel(t, id+" ratio", *g[i].Ratio, *w[i].Ratio, tolEAvgRel)
			}
		}
	}
}

type goldenFig10Point struct {
	Chiplet  int      `json:"chiplet"`
	Rows     int      `json:"rows"`
	Cols     int      `json:"cols"`
	Bench    string   `json:"bench"`
	TwoQ     int      `json:"two_q"`
	MonoZero bool     `json:"mono_zero"`
	LogRatio *float64 `json:"log_ratio"` // nil for the +-Inf / NaN sentinels
}

// goldenFig10 runs Fig. 10 on the golden systems and reduces the points
// to the golden file's records.
func goldenFig10(t *testing.T, cfg Config) []goldenFig10Point {
	t.Helper()
	grids := []mcm.Grid{
		{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}, // 80q of 20q chiplets
		{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 4, Width: 8}}, // 160q of 40q chiplets
	}
	pts, err := runFig10(t, cfg, grids, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenFig10Point
	for _, p := range pts {
		got = append(got, goldenFig10Point{
			Chiplet: p.Grid.Spec.Qubits(), Rows: p.Grid.Rows, Cols: p.Grid.Cols,
			Bench: p.Bench, TwoQ: p.TwoQ, MonoZero: p.MonoZero, LogRatio: fin(p.LogRatio),
		})
	}
	return got
}

func TestGoldenFig10(t *testing.T) {
	got := goldenFig10(t, goldenConfig())

	var want []goldenFig10Point
	loadOrUpdateGolden(t, "fig10", got, &want)
	if len(got) != len(want) {
		t.Fatalf("point count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		id := fmt.Sprintf("fig10 %dq %dx%d %s", w.Chiplet, w.Rows, w.Cols, w.Bench)
		if g.Chiplet != w.Chiplet || g.Rows != w.Rows || g.Cols != w.Cols || g.Bench != w.Bench {
			t.Fatalf("%s: system identity changed", id)
		}
		if g.TwoQ != w.TwoQ {
			t.Errorf("%s: compiled 2q count = %d, want exactly %d (compiler drifted)",
				id, g.TwoQ, w.TwoQ)
		}
		if g.MonoZero != w.MonoZero {
			t.Errorf("%s: mono-zero flag flipped", id)
		}
		if (g.LogRatio == nil) != (w.LogRatio == nil) {
			t.Errorf("%s: log-ratio finiteness flipped", id)
			continue
		}
		if w.LogRatio != nil {
			approx(t, id+" log ratio", *g.LogRatio, *w.LogRatio, tolLogRatio)
		}
	}
}
