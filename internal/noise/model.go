package noise

import (
	"fmt"
	"math"
	"math/rand"

	"chipletqc/internal/graph"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// BinWidthFig7 is the paper's detuning bin width for the empirical
// on-chip fidelity model (0.1 GHz, Section VI-A).
const BinWidthFig7 = 0.1

// DetuningModel is the empirical on-chip gate error model: calibration
// observations binned by detuning; per-coupling error is sampled from the
// bin matching the pair's realised detuning (paper Section VI-A).
type DetuningModel struct {
	series *stats.BinnedSeries
}

// NewDetuningModel bins the calibration points at the given width.
// Points beyond maxDetuning land in the final bin (matching the paper's
// clamped sampling bounds). binWidth defaults to BinWidthFig7 when <= 0.
func NewDetuningModel(points []CalibPoint, binWidth float64) *DetuningModel {
	if binWidth <= 0 {
		binWidth = BinWidthFig7
	}
	const maxDetuning = 0.6 // GHz; observed spread tops out well below this
	n := int(math.Ceil(maxDetuning / binWidth))
	if n < 1 {
		n = 1
	}
	s := stats.NewBinnedSeries(0, binWidth, n)
	for _, p := range points {
		s.Add(math.Abs(p.Detuning), p.Infidelity)
	}
	return &DetuningModel{series: s}
}

// Sample draws one gate infidelity for a coupling with the given
// detuning. It panics if the model holds no calibration data at all.
func (m *DetuningModel) Sample(r *rand.Rand, detuning float64) float64 {
	bin := m.series.NearestNonEmpty(math.Abs(detuning))
	if bin == nil {
		panic("noise: detuning model has no calibration data")
	}
	return stats.Choice(r, bin)
}

// PooledStats returns the median and mean of all calibration
// observations, the Fig. 7 annotations.
func (m *DetuningModel) PooledStats() (median, mean float64) {
	all := m.series.All()
	return stats.Median(all), stats.Mean(all)
}

// LinkModel is the inter-chip link error model: a lognormal whose mean
// and median come from the flip-chip experiment the paper cites (mean
// infidelity 7.5%, median 5.6% — coherence-limited fidelity 92.5%/94.4%).
type LinkModel struct {
	Mu    float64 // lognormal location
	Sigma float64 // lognormal shape
	Floor float64 // clamp for physicality
	Ceil  float64
}

// Published link-error statistics from the flip-chip bonding experiment.
const (
	LinkMeanInfidelity   = 0.075
	LinkMedianInfidelity = 0.056
)

// DefaultLinkModel is the state-of-art link error distribution.
func DefaultLinkModel() LinkModel {
	mu, sigma := stats.LogNormalParams(LinkMeanInfidelity, LinkMedianInfidelity)
	return LinkModel{Mu: mu, Sigma: sigma, Floor: 1e-4, Ceil: 0.9}
}

// WithMean rescales the distribution to the given arithmetic mean while
// keeping the lognormal shape, implementing the Fig. 9 e_link sweeps.
// A mean of exactly 0 yields the degenerate perfect-link model: every
// sample is 0 (while still consuming one draw, so RNG streams stay
// aligned with the nonzero case).
func (l LinkModel) WithMean(mean float64) LinkModel {
	if mean < 0 {
		panic(fmt.Sprintf("noise: negative link mean %g", mean))
	}
	if mean == 0 {
		return LinkModel{Mu: math.Inf(-1), Sigma: l.Sigma, Floor: 0, Ceil: 0}
	}
	cur := math.Exp(l.Mu + l.Sigma*l.Sigma/2)
	l.Mu += math.Log(mean / cur)
	return l
}

// Mean returns the distribution's arithmetic mean (ignoring clamps).
func (l LinkModel) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Sample draws one link infidelity.
func (l LinkModel) Sample(r *rand.Rand) float64 {
	return stats.Clamp(stats.LogNormal(r, l.Mu, l.Sigma), l.Floor, l.Ceil)
}

// Assignment holds the per-coupling two-qubit gate infidelity of a
// fabricated, assembled device.
type Assignment struct {
	Err map[graph.Edge]float64
}

// Assign realises gate errors for device d with sampled frequencies f:
// intra-chip couplings sample the empirical detuning model; inter-chip
// links sample the link model (paper Sections VI-A and VI-B).
func Assign(r *rand.Rand, d *topo.Device, f []float64, det *DetuningModel, link LinkModel) Assignment {
	errs := make(map[graph.Edge]float64, d.G.M())
	for _, e := range d.G.Edges() {
		if d.Link[e] {
			errs[e] = link.Sample(r)
		} else {
			errs[e] = det.Sample(r, f[e.U]-f[e.V])
		}
	}
	return Assignment{Err: errs}
}

// Mean returns the infidelity averaged across every coupled qubit pair,
// the paper's E_avg metric (Section VII-C2).
func (a Assignment) Mean() float64 {
	if len(a.Err) == 0 {
		return 0
	}
	var sum float64
	for _, e := range a.Err {
		sum += e
	}
	return sum / float64(len(a.Err))
}

// MeanOver returns the average infidelity over a subset of couplings.
func (a Assignment) MeanOver(edges []graph.Edge) float64 {
	if len(edges) == 0 {
		return 0
	}
	var sum float64
	for _, e := range edges {
		sum += a.Err[e]
	}
	return sum / float64(len(edges))
}

// Get returns the infidelity of coupling (u, v).
func (a Assignment) Get(u, v int) float64 {
	return a.Err[graph.NewEdge(u, v)]
}

// ChipMeanInfidelity is the expected on-chip error under the default
// models: the paper quotes e_chip ~ 1.8% (the Washington mean).
const ChipMeanInfidelity = 0.018

// LinkRatioModels returns link models for the paper's Fig. 9 sweep:
// e_link/e_chip = 4.17 (state of art), 3, 2, and 1.
func LinkRatioModels(chipMean float64) map[string]LinkModel {
	base := DefaultLinkModel()
	return map[string]LinkModel{
		"state-of-art": base,
		"ratio-3":      base.WithMean(3 * chipMean),
		"ratio-2":      base.WithMean(2 * chipMean),
		"ratio-1":      base.WithMean(1 * chipMean),
	}
}
