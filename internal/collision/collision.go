// Package collision implements the seven fixed-frequency transmon
// frequency-collision criteria of the paper's Table I. Violating any
// criterion is expected to push two-qubit CR gate error above ~1%,
// so a device is "collision-free" only when all seven return false for
// every coupling and every control/target triple.
//
// The criteria, with Qi the CR control and Qj/Qk its targets:
//
//	Type 1: fi = fj            +- 0.017 GHz   nearest neighbours Qi, Qj
//	Type 2: fi + a/2 = fj      +- 0.004 GHz   control Qi, target Qj
//	Type 3: fi = fj + a        +- 0.030 GHz   nearest neighbours Qi, Qj
//	Type 4: fj < fi + a  or  fi < fj          control Qi, target Qj
//	Type 5: fj = fk            +- 0.017 GHz   Qi controls Qj and/or Qk
//	Type 6: fj = fk + a (or fj + a = fk) +- 0.025 GHz  same triples
//	Type 7: 2fi + a = fj + fk  +- 0.017 GHz   same triples
//
// where a is the transmon anharmonicity (~ -0.330 GHz).
package collision

import (
	"fmt"
	"math"

	"chipletqc/internal/topo"
)

// Params holds the anharmonicity and the Table I thresholds, in GHz.
// All fields are positive half-widths except Anharmonicity, which is the
// signed alpha.
type Params struct {
	Anharmonicity float64 // alpha, negative for transmons
	T1            float64 // Type 1 half-width
	T2            float64 // Type 2 half-width
	T3            float64 // Type 3 half-width
	T5            float64 // Type 5 half-width
	T6            float64 // Type 6 half-width
	T7            float64 // Type 7 half-width
}

// DefaultParams reproduces Table I: alpha = -0.330 GHz and the published
// thresholds.
func DefaultParams() Params {
	return Params{
		Anharmonicity: -0.330,
		T1:            0.017,
		T2:            0.004,
		T3:            0.030,
		T5:            0.017,
		T6:            0.025,
		T7:            0.017,
	}
}

// NonFinite is the pseudo-criterion reported when a frequency is NaN or
// infinite: such assignments are rejected outright (never collision-free)
// instead of silently falling through the Table I comparisons, all of
// which evaluate false on NaN.
const NonFinite = -1

// Violation records one triggered criterion.
type Violation struct {
	Type    int // 1..7, or NonFinite
	Control int // control qubit (or first neighbour for types 1/3)
	Target  int // target qubit (or second neighbour)
	Target2 int // second target for types 5-7, else -1
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	if v.Type == NonFinite {
		return fmt.Sprintf("non-finite frequency: q%d or q%d", v.Control, v.Target)
	}
	if v.Target2 >= 0 {
		return fmt.Sprintf("type %d collision: control q%d targets q%d,q%d",
			v.Type, v.Control, v.Target, v.Target2)
	}
	return fmt.Sprintf("type %d collision: q%d-q%d", v.Type, v.Control, v.Target)
}

// edgeInfo is a precompiled coupling with its control direction resolved.
type edgeInfo struct {
	control, target int
}

// Checker is a collision evaluator compiled against one device topology.
// Compiling once and reusing across Monte Carlo samples avoids rebuilding
// edge and control-pair tables in the hot loop.
type Checker struct {
	params Params
	edges  []edgeInfo
	pairs  []topo.ControlPair
}

// NewChecker compiles a checker for device d under params p.
func NewChecker(d *topo.Device, p Params) *Checker {
	c := &Checker{params: p}
	for _, e := range d.G.Edges() {
		c.edges = append(c.edges, edgeInfo{
			control: d.ControlOf(e.U, e.V),
			target:  d.TargetOf(e.U, e.V),
		})
	}
	c.pairs = d.ControlPairs()
	return c
}

// Edges returns the number of compiled couplings.
func (c *Checker) Edges() int { return len(c.edges) }

// Free reports whether the frequency assignment f (GHz per qubit) is
// collision-free, returning at the first violation. NaN or infinite
// frequencies are never collision-free. This is the Monte Carlo hot
// path; it allocates nothing.
func (c *Checker) Free(f []float64) bool {
	return c.FreeInto(nil, f)
}

// FreeInto is Free with an allocation-free diagnostic: when the
// assignment is not collision-free it writes the first triggered
// criterion into *v (callers reuse one Violation across trials) and
// returns false. v may be nil to skip the diagnostic.
func (c *Checker) FreeInto(v *Violation, f []float64) bool {
	p := &c.params
	for i := range c.edges {
		e := &c.edges[i]
		if t := edgeViolationType(f[e.control], f[e.target], p); t != 0 {
			if v != nil {
				*v = Violation{Type: t, Control: e.control, Target: e.target, Target2: -1}
			}
			return false
		}
	}
	for i := range c.pairs {
		cp := &c.pairs[i]
		if t := pairViolationType(f[cp.Control], f[cp.T1], f[cp.T2], p); t != 0 {
			if v != nil {
				*v = Violation{Type: t, Control: cp.Control, Target: cp.T1, Target2: cp.T2}
			}
			return false
		}
	}
	return true
}

// Violations returns every triggered criterion for assignment f.
func (c *Checker) Violations(f []float64) []Violation {
	return c.ViolationsInto(nil, f)
}

// ViolationsInto appends every triggered criterion for assignment f to
// dst and returns the extended slice. Hot loops pass dst[:0] to reuse
// the backing array across trials instead of allocating per call.
func (c *Checker) ViolationsInto(dst []Violation, f []float64) []Violation {
	p := &c.params
	for i := range c.edges {
		e := &c.edges[i]
		dst = appendEdgeViolations(dst, e.control, e.target, f[e.control], f[e.target], p)
	}
	for i := range c.pairs {
		cp := &c.pairs[i]
		dst = appendPairViolations(dst, cp, f[cp.Control], f[cp.T1], f[cp.T2], p)
	}
	return dst
}

// finite reports whether f is neither NaN nor infinite. The f-f trick
// compiles to one subtraction and compare, cheap enough for the per-edge
// hot path (NaN-NaN and Inf-Inf are NaN, which compares unequal to 0).
func finite(f float64) bool { return f-f == 0 }

// edgeViolationType returns the first violated pairwise criterion
// (1, 2, 3, or 4) for control frequency fi and target frequency fj,
// NonFinite for NaN/Inf inputs, or 0.
func edgeViolationType(fi, fj float64, p *Params) int {
	if !finite(fi) || !finite(fj) {
		return NonFinite
	}
	a := p.Anharmonicity
	if math.Abs(fi-fj) <= p.T1 {
		return 1
	}
	if math.Abs(fi+a/2-fj) <= p.T2 {
		return 2
	}
	if math.Abs(fi-fj-a) <= p.T3 || math.Abs(fj-fi-a) <= p.T3 {
		return 3
	}
	// Type 4: the target must lie strictly inside the straddling regime
	// (fi + a, fi); outside it the CR interaction fails.
	if fj < fi+a || fi < fj {
		return 4
	}
	return 0
}

// pairViolationType returns the first violated spectator criterion
// (5, 6, or 7) for control fi with targets fj, fk, NonFinite for
// NaN/Inf inputs, or 0.
func pairViolationType(fi, fj, fk float64, p *Params) int {
	if !finite(fi) || !finite(fj) || !finite(fk) {
		return NonFinite
	}
	a := p.Anharmonicity
	if math.Abs(fj-fk) <= p.T5 {
		return 5
	}
	if math.Abs(fj-fk-a) <= p.T6 || math.Abs(fj+a-fk) <= p.T6 {
		return 6
	}
	if math.Abs(2*fi+a-fj-fk) <= p.T7 {
		return 7
	}
	return 0
}

func appendEdgeViolations(out []Violation, qi, qj int, fi, fj float64, p *Params) []Violation {
	if !finite(fi) || !finite(fj) {
		return append(out, Violation{Type: NonFinite, Control: qi, Target: qj, Target2: -1})
	}
	a := p.Anharmonicity
	if math.Abs(fi-fj) <= p.T1 {
		out = append(out, Violation{Type: 1, Control: qi, Target: qj, Target2: -1})
	}
	if math.Abs(fi+a/2-fj) <= p.T2 {
		out = append(out, Violation{Type: 2, Control: qi, Target: qj, Target2: -1})
	}
	if math.Abs(fi-fj-a) <= p.T3 || math.Abs(fj-fi-a) <= p.T3 {
		out = append(out, Violation{Type: 3, Control: qi, Target: qj, Target2: -1})
	}
	if fj < fi+a || fi < fj {
		out = append(out, Violation{Type: 4, Control: qi, Target: qj, Target2: -1})
	}
	return out
}

func appendPairViolations(out []Violation, cp *topo.ControlPair, fi, fj, fk float64, p *Params) []Violation {
	if !finite(fi) || !finite(fj) || !finite(fk) {
		return append(out, Violation{Type: NonFinite, Control: cp.Control, Target: cp.T1, Target2: cp.T2})
	}
	a := p.Anharmonicity
	if math.Abs(fj-fk) <= p.T5 {
		out = append(out, Violation{Type: 5, Control: cp.Control, Target: cp.T1, Target2: cp.T2})
	}
	if math.Abs(fj-fk-a) <= p.T6 || math.Abs(fj+a-fk) <= p.T6 {
		out = append(out, Violation{Type: 6, Control: cp.Control, Target: cp.T1, Target2: cp.T2})
	}
	if math.Abs(2*fi+a-fj-fk) <= p.T7 {
		out = append(out, Violation{Type: 7, Control: cp.Control, Target: cp.T1, Target2: cp.T2})
	}
	return out
}
