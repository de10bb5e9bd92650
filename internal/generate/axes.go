package generate

import (
	"fmt"
	"strings"

	"chipletqc/internal/scenario"
)

// Axes is a generator grid: topologies crossed with the physical
// design-space axes. Empty axes inherit the base scenario's value (and
// contribute no name segment), so the minimal grid is just Topos.
type Axes struct {
	// Topos are the generated topologies (at least one).
	Topos []TopoSpec
	// Sigmas is the fabrication-precision axis (GHz frequency spread);
	// empty keeps the base scenario's sigma.
	Sigmas []float64
	// ThresholdScales multiplies every Table I collision half-width;
	// empty keeps the base thresholds (scale 1).
	ThresholdScales []float64
	// LinkMeans is the mean inter-chip link infidelity axis; empty
	// keeps the base link model.
	LinkMeans []float64
}

// Validate reports the first invalid axis value.
func (a Axes) Validate() error {
	if len(a.Topos) == 0 {
		return fmt.Errorf("generate: axes need at least one topology")
	}
	for _, t := range a.Topos {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for _, s := range a.Sigmas {
		if s <= 0 {
			return fmt.Errorf("generate: fab sigma %g must be positive", s)
		}
	}
	for _, t := range a.ThresholdScales {
		if t <= 0 {
			return fmt.Errorf("generate: threshold scale %g must be positive", t)
		}
	}
	for _, l := range a.LinkMeans {
		if l < 0 || l > 1 {
			return fmt.Errorf("generate: link mean infidelity %g must be in [0, 1]", l)
		}
	}
	return nil
}

// Size returns the number of scenarios the axes expand to.
func (a Axes) Size() int {
	n := len(a.Topos)
	for _, l := range []int{len(a.Sigmas), len(a.ThresholdScales), len(a.LinkMeans)} {
		if l > 0 {
			n *= l
		}
	}
	return n
}

// Gen is one generated scenario together with the axis values that
// minted it, so frontier builders can label points without re-parsing
// scenario names.
type Gen struct {
	Scenario scenario.Scenario
	Spec     TopoSpec
	// Sigma is the fabrication frequency spread the scenario runs at
	// (the base scenario's when the axis was empty).
	Sigma float64
	// ThresholdScale is the Table I half-width multiplier (1 = base).
	ThresholdScale float64
	// LinkMean is the overridden mean link infidelity; nil = base model.
	LinkMean *float64
}

// Name returns the generated scenario's canonical name.
func (g Gen) Name() string { return g.Scenario.Name }

// Scenarios expands base x axes into the full generator grid, in
// deterministic order (topologies outermost, then sigmas, threshold
// scales, link means). Each scenario carries the topology in
// Scenario.Topology, a canonical name like
// "gen/hex-3x3-q16/sigma0.004" (with "/th<scale>" and "/link<mean>"
// segments when those axes are set, and a "/base-<name>" suffix for
// non-paper bases), and validates cleanly.
func Scenarios(base scenario.Scenario, axes Axes) ([]Gen, error) {
	if err := axes.Validate(); err != nil {
		return nil, err
	}
	sigmas := axes.Sigmas
	if len(sigmas) == 0 {
		sigmas = []float64{base.Fab.Sigma}
	}
	scales := axes.ThresholdScales
	namedScales := len(scales) > 0
	if !namedScales {
		scales = []float64{1}
	}
	links := make([]*float64, 0, len(axes.LinkMeans)+1)
	if len(axes.LinkMeans) == 0 {
		links = append(links, nil)
	}
	for i := range axes.LinkMeans {
		links = append(links, &axes.LinkMeans[i])
	}

	out := make([]Gen, 0, axes.Size())
	for _, spec := range axes.Topos {
		spec := spec
		for _, sigma := range sigmas {
			for _, scale := range scales {
				for _, link := range links {
					s := base
					s.Topology = &spec
					s.Fab.Sigma = sigma
					if scale != 1 {
						s.Params.T1 *= scale
						s.Params.T2 *= scale
						s.Params.T3 *= scale
						s.Params.T5 *= scale
						s.Params.T6 *= scale
						s.Params.T7 *= scale
					}
					if link != nil {
						s.Link = s.Link.WithMean(*link)
					}
					var name strings.Builder
					fmt.Fprintf(&name, "gen/%s/sigma%g", spec.Canonical(), sigma)
					if namedScales {
						fmt.Fprintf(&name, "/th%g", scale)
					}
					if link != nil {
						fmt.Fprintf(&name, "/link%g", *link)
					}
					if base.Name != scenario.PaperName {
						fmt.Fprintf(&name, "/base-%s", base.Name)
					}
					s.Name = name.String()
					s.Description = fmt.Sprintf("generated %s topology (%d qubits) at sigma %g, from %q",
						spec.Family, spec.Qubits(), sigma, base.Name)
					if err := s.Validate(); err != nil {
						return nil, err
					}
					out = append(out, Gen{
						Scenario:       s,
						Spec:           spec,
						Sigma:          sigma,
						ThresholdScale: scale,
						LinkMean:       link,
					})
				}
			}
		}
	}
	return out, nil
}

// Ensure registers every generated scenario, idempotently: a name that
// is already registered with an identical fingerprint is left alone (so
// re-expanding the same grid in one process — reruns, shards, daemon
// resubmissions — is safe), while a conflicting redefinition is an
// error. It returns the scenario names in grid order.
func Ensure(gens []Gen) ([]string, error) {
	names := make([]string, 0, len(gens))
	for _, g := range gens {
		if prev, err := scenario.Lookup(g.Scenario.Name); err == nil {
			if prev.Fingerprint() != g.Scenario.Fingerprint() {
				return nil, fmt.Errorf("generate: scenario %q already registered with a different fingerprint (%s != %s)",
					g.Scenario.Name, prev.Fingerprint(), g.Scenario.Fingerprint())
			}
		} else {
			scenario.Register(g.Scenario)
		}
		names = append(names, g.Scenario.Name)
	}
	return names, nil
}

// ParseAxesSpec parses the compact one-string grid syntax of chipletqc's
// -generate flag (the campaign, explore, serve, submit and pin verbs):
//
//	topos=hex-2x2-q10,square-2x2-q10;sigmas=0.01,0.014;thresholds=0.5,1;links=0.0075;base=paper
//
// Only topos is required; base defaults to "paper". It returns the
// base scenario name and the axes (unexpanded: callers resolve the
// base and call Scenarios).
func ParseAxesSpec(s string) (baseName string, axes Axes, err error) {
	baseName = scenario.PaperName
	for _, seg := range strings.Split(s, ";") {
		if seg = strings.TrimSpace(seg); seg == "" {
			continue
		}
		key, val, ok := strings.Cut(seg, "=")
		if !ok {
			return "", Axes{}, fmt.Errorf("generate: grid segment %q is not key=value", seg)
		}
		switch key {
		case "topos":
			axes.Topos, err = ParseTopoList(val)
		case "sigmas":
			axes.Sigmas, err = parseFloatList(val)
		case "thresholds":
			axes.ThresholdScales, err = parseFloatList(val)
		case "links":
			axes.LinkMeans, err = parseFloatList(val)
		case "base":
			baseName = val
		default:
			err = fmt.Errorf("generate: unknown grid axis %q (want topos, sigmas, thresholds, links, base)", key)
		}
		if err != nil {
			return "", Axes{}, err
		}
	}
	if err := axes.Validate(); err != nil {
		return "", Axes{}, err
	}
	return baseName, axes, nil
}
