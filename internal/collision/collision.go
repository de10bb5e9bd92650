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
	"math/bits"

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
		if m := edgeMask(f[e.control], f[e.target], p); m != 0 {
			if v != nil {
				*v = Violation{Type: maskType(m), Control: e.control, Target: e.target, Target2: -1}
			}
			return false
		}
	}
	for i := range c.pairs {
		cp := &c.pairs[i]
		if m := pairMask(f[cp.Control], f[cp.T1], f[cp.T2], p); m != 0 {
			if v != nil {
				*v = Violation{Type: maskType(m), Control: cp.Control, Target: cp.T1, Target2: cp.T2}
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
		m := edgeMask(f[e.control], f[e.target], p)
		dst = appendMask(dst, m, Violation{Control: e.control, Target: e.target, Target2: -1})
	}
	for i := range c.pairs {
		cp := &c.pairs[i]
		m := pairMask(f[cp.Control], f[cp.T1], f[cp.T2], p)
		dst = appendMask(dst, m, Violation{Control: cp.Control, Target: cp.T1, Target2: cp.T2})
	}
	return dst
}

// finite reports whether f is neither NaN nor infinite. The f-f trick
// compiles to one subtraction and compare, cheap enough for the per-edge
// hot path (NaN-NaN and Inf-Inf are NaN, which compares unequal to 0).
func finite(f float64) bool { return f-f == 0 }

// A mask is the set of criteria one coupling or control pair triggers:
// bit t is Table I type t. Bit 0 (nonFiniteBit) stands for NonFinite
// and is never combined with another bit, since no comparison is
// meaningful on a NaN or infinite frequency.
const nonFiniteBit = 1

// maskType returns the criterion Free reports for mask m: NonFinite,
// the lowest triggered type, or 0 for an empty mask.
func maskType(m uint8) int {
	if m == nonFiniteBit {
		return NonFinite
	}
	if m == 0 {
		return 0
	}
	return bits.TrailingZeros8(m)
}

// appendMask appends one copy of v per criterion in m, in type order.
func appendMask(dst []Violation, m uint8, v Violation) []Violation {
	if m == nonFiniteBit {
		v.Type = NonFinite
		return append(dst, v)
	}
	for ; m != 0; m &= m - 1 {
		v.Type = bits.TrailingZeros8(m)
		dst = append(dst, v)
	}
	return dst
}

// edgeMask evaluates the pairwise criteria (types 1-4) for control
// frequency fi and target frequency fj.
func edgeMask(fi, fj float64, p *Params) uint8 {
	if !finite(fi) || !finite(fj) {
		return nonFiniteBit
	}
	a := p.Anharmonicity
	var m uint8
	if math.Abs(fi-fj) <= p.T1 {
		m |= 1 << 1
	}
	if math.Abs(fi+a/2-fj) <= p.T2 {
		m |= 1 << 2
	}
	if math.Abs(fi-fj-a) <= p.T3 || math.Abs(fj-fi-a) <= p.T3 {
		m |= 1 << 3
	}
	// Type 4: the target must lie strictly inside the straddling regime
	// (fi + a, fi); outside it the CR interaction fails.
	if fj < fi+a || fi < fj {
		m |= 1 << 4
	}
	return m
}

// pairMask evaluates the spectator criteria (types 5-7) for control fi
// with targets fj, fk.
func pairMask(fi, fj, fk float64, p *Params) uint8 {
	if !finite(fi) || !finite(fj) || !finite(fk) {
		return nonFiniteBit
	}
	a := p.Anharmonicity
	var m uint8
	if math.Abs(fj-fk) <= p.T5 {
		m |= 1 << 5
	}
	if math.Abs(fj-fk-a) <= p.T6 || math.Abs(fj+a-fk) <= p.T6 {
		m |= 1 << 6
	}
	if math.Abs(2*fi+a-fj-fk) <= p.T7 {
		m |= 1 << 7
	}
	return m
}
