// Package graph implements the small undirected-graph toolkit used by the
// topology, compiler, and evaluation layers: adjacency storage, BFS,
// an all-pairs first-hop routing table, diameter, and connectivity
// checks.
//
// Vertices are dense integers [0, N). Edges are unordered pairs; the
// package canonicalises them so (u, v) and (v, u) are the same edge.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Edge is an unordered pair of vertices, stored canonically with U < V.
type Edge struct {
	U, V int
}

// NewEdge canonicalises the endpoint order. It panics when u == v:
// self-loops never occur in qubit coupling maps and always indicate a
// construction bug upstream.
func NewEdge(u, v int) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Graph is an undirected simple graph over vertices [0, N).
//
// A graph is built with AddEdge and then read. The first FirstHop or
// Eccentricity call freezes it: the routing table is built once and
// shared by every later (possibly concurrent) reader, and AddEdge panics
// from then on.
type Graph struct {
	n     int
	adj   [][]int
	edges map[Edge]bool

	routeOnce sync.Once
	route     *routing
}

// New creates an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{
		n:     n,
		adj:   make([][]int, n),
		edges: make(map[Edge]bool),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge (u, v). Duplicate insertions are
// no-ops so construction code can be written without dedup bookkeeping.
// It panics once the routing table exists: a coupling map that changes
// after routing has started is a construction bug upstream.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if g.route != nil {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) after the routing table was built", u, v))
	}
	e := NewEdge(u, v)
	if g.edges[e] {
		return
	}
	g.edges[e] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether (u, v) is an edge. It scans u's adjacency
// list: coupling-map degrees are a few at most, so the scan beats
// hashing an Edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	return slices.Contains(g.adj[u], v)
}

// Neighbors returns the adjacency list of v. The returned slice is owned
// by the graph; callers must not modify it.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges in deterministic (sorted) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// BFSFrom returns the BFS distance from src to every vertex; unreachable
// vertices get -1.
func (g *Graph) BFSFrom(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFSFrom(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the longest shortest-path distance between any pair of
// vertices, or -1 when the graph is disconnected or empty. The paper uses
// topology graph diameter to justify preferring "square" MCM dimensions.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFSFrom(v) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Clone returns an independent deep copy of the graph.
// The clone is unfrozen: it has no routing table until first use.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for e := range g.edges {
		c.AddEdge(e.U, e.V)
	}
	return c
}
