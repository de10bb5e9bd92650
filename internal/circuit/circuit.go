// Package circuit provides the quantum circuit intermediate
// representation used by the benchmark generators, the compiler, and the
// application-fidelity evaluation: a flat gate list with dependency-aware
// depth and critical-path accounting matching the paper's Table II
// metrics (1q count / 2q count / 2q critical path).
package circuit

import (
	"fmt"
)

// Gate is one operation. Qubit operand order is significant: for CX the
// first operand is the control; for CCX the first two are controls.
type Gate struct {
	Name   string
	Qubits []int
	Param  float64 // rotation angle for R* gates, unused otherwise
}

// arity maps gate names to operand counts; parameterised gates are noted
// by hasParam.
var arity = map[string]struct {
	nq       int
	hasParam bool
}{
	"h":    {1, false},
	"x":    {1, false},
	"y":    {1, false},
	"z":    {1, false},
	"s":    {1, false},
	"sdg":  {1, false},
	"t":    {1, false},
	"tdg":  {1, false},
	"rx":   {1, true},
	"ry":   {1, true},
	"rz":   {1, true},
	"cx":   {2, false},
	"cz":   {2, false},
	"swap": {2, false},
	"ccx":  {3, false},
}

// IsTwoQubit reports whether the gate acts on exactly two qubits.
func (g Gate) IsTwoQubit() bool { return len(g.Qubits) == 2 }

// IsOneQubit reports whether the gate acts on exactly one qubit.
func (g Gate) IsOneQubit() bool { return len(g.Qubits) == 1 }

// String renders e.g. "cx q1,q4" or "rz(0.50) q3".
func (g Gate) String() string {
	s := g.Name
	if a, ok := arity[g.Name]; ok && a.hasParam {
		s = fmt.Sprintf("%s(%.3f)", g.Name, g.Param)
	}
	for i, q := range g.Qubits {
		if i == 0 {
			s += fmt.Sprintf(" q%d", q)
		} else {
			s += fmt.Sprintf(",q%d", q)
		}
	}
	return s
}

// Circuit is an ordered gate list over NumQubits qubits.
type Circuit struct {
	NumQubits int
	Gates     []Gate

	// ops is the free tail of the current operand chunk: length 0,
	// capacity what is left. Gates added through the package take their
	// Qubits from it, so a circuit pays one allocation per chunk rather
	// than one per gate.
	ops []int
}

// New creates an empty circuit over n qubits. It panics for n < 1.
func New(n int) *Circuit {
	if n < 1 {
		panic(fmt.Sprintf("circuit: need at least one qubit, got %d", n))
	}
	return &Circuit{NumQubits: n}
}

// Append adds a gate after validating its name, arity, operand range,
// and operand distinctness.
func (c *Circuit) Append(name string, param float64, qubits ...int) {
	a, ok := arity[name]
	if !ok {
		panic(fmt.Sprintf("circuit: unknown gate %q", name))
	}
	if len(qubits) != a.nq {
		panic(fmt.Sprintf("circuit: gate %q wants %d operands, got %d", name, a.nq, len(qubits)))
	}
	for i, q := range qubits {
		if q < 0 || q >= c.NumQubits {
			panic(fmt.Sprintf("circuit: operand q%d out of range [0,%d)", q, c.NumQubits))
		}
		for j := 0; j < i; j++ {
			if qubits[j] == q {
				panic(fmt.Sprintf("circuit: gate %q repeats operand q%d", name, q))
			}
		}
	}
	g := Gate{Name: name, Qubits: c.operands(qubits)}
	if a.hasParam {
		g.Param = param
	}
	c.Gates = append(c.Gates, g)
}

// minOpsChunk is the smallest operand chunk a circuit allocates.
const minOpsChunk = 16

// operands copies qs into the circuit's operand arena. The returned
// slice is capacity-capped, so appending to one gate's Qubits
// reallocates instead of overwriting its neighbour's operands. A new
// chunk holds two operands for every gate the Gates slice still has
// room for, or as many as there are gates so far, whichever is more:
// a pre-sized Gates slice gets its operands in about one chunk and a
// growing one in geometrically growing chunks.
func (c *Circuit) operands(qs []int) []int {
	n := len(qs)
	if cap(c.ops) < n {
		c.ops = make([]int, 0, max(n, minOpsChunk, 2*(cap(c.Gates)-len(c.Gates)), len(c.Gates)))
	}
	ops := append(c.ops, qs...)
	c.ops = ops[n:]
	return ops[:n:n]
}

// Convenience constructors for the gate set.

func (c *Circuit) H(q int)             { c.Append("h", 0, q) }
func (c *Circuit) X(q int)             { c.Append("x", 0, q) }
func (c *Circuit) Y(q int)             { c.Append("y", 0, q) }
func (c *Circuit) Z(q int)             { c.Append("z", 0, q) }
func (c *Circuit) S(q int)             { c.Append("s", 0, q) }
func (c *Circuit) Sdg(q int)           { c.Append("sdg", 0, q) }
func (c *Circuit) T(q int)             { c.Append("t", 0, q) }
func (c *Circuit) Tdg(q int)           { c.Append("tdg", 0, q) }
func (c *Circuit) RX(q int, a float64) { c.Append("rx", a, q) }
func (c *Circuit) RY(q int, a float64) { c.Append("ry", a, q) }
func (c *Circuit) RZ(q int, a float64) { c.Append("rz", a, q) }
func (c *Circuit) CX(ctrl, tgt int)    { c.Append("cx", 0, ctrl, tgt) }
func (c *Circuit) CZ(a, b int)         { c.Append("cz", 0, a, b) }
func (c *Circuit) SWAP(a, b int)       { c.Append("swap", 0, a, b) }
func (c *Circuit) CCX(c1, c2, tgt int) { c.Append("ccx", 0, c1, c2, tgt) }

// OneQubitGates returns the number of single-qubit gates.
func (c *Circuit) OneQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsOneQubit() {
			n++
		}
	}
	return n
}

// TwoQubitGates returns the number of two-qubit gates.
func (c *Circuit) TwoQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// Depth returns the dependency depth counting every gate as one layer.
func (c *Circuit) Depth() int { return c.longestChain(func(Gate) bool { return true }) }

// TwoQubitCriticalPath returns the length of the longest dependency chain
// counting only two-qubit gates — the "2q critical" column of Table II.
func (c *Circuit) TwoQubitCriticalPath() int { return c.longestChain(Gate.IsTwoQubit) }

// longestChain returns the length of the longest dependency chain
// through shared qubits, where a gate adds one layer when counts holds
// for it and none otherwise.
func (c *Circuit) longestChain(counts func(Gate) bool) int {
	depth := make([]int, c.NumQubits)
	longest := 0
	for _, g := range c.Gates {
		d := 0
		for _, q := range g.Qubits {
			d = max(d, depth[q])
		}
		if counts(g) {
			d++
		}
		for _, q := range g.Qubits {
			depth[q] = d
		}
		longest = max(longest, d)
	}
	return longest
}

// Counts bundles the paper's Table II metrics.
type Counts struct {
	OneQ, TwoQ, TwoQCritical int
}

// Counts returns the Table II metrics for the circuit.
func (c *Circuit) Counts() Counts {
	return Counts{
		OneQ:         c.OneQubitGates(),
		TwoQ:         c.TwoQubitGates(),
		TwoQCritical: c.TwoQubitCriticalPath(),
	}
}

// String renders the Table II row format "1q / 2q / 2q critical".
func (k Counts) String() string {
	return fmt.Sprintf("%d / %d / %d", k.OneQ, k.TwoQ, k.TwoQCritical)
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		out.Gates[i] = Gate{Name: g.Name, Qubits: append([]int(nil), g.Qubits...), Param: g.Param}
	}
	return out
}
