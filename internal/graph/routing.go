package graph

import "slices"

// routing is the all-pairs BFS table behind FirstHop and Eccentricity.
// It is built once per graph and never written afterwards, so any
// number of goroutines may read it. It costs 4·N² bytes for the first
// hops (160 KB at 200 vertices, 1 MB at 500).
type routing struct {
	// first[src*n+dst] is the vertex after src on the canonical shortest
	// path to dst, src itself when dst == src, and -1 when dst is
	// unreachable.
	first []int32
	// ecc[v] is v's eccentricity, or -1 when some vertex is unreachable.
	ecc []int32
}

// FirstHop returns the vertex after src on a shortest path from src to
// dst: dst itself when the two are adjacent, src when src == dst, and -1
// when dst is unreachable. Ties between equal-length paths break as a
// BFS from src that visits each vertex's neighbours in ascending order:
// every vertex's predecessor is the first vertex to discover it.
//
// The first call builds the routing table for all pairs and freezes the
// graph (see AddEdge); later calls are a single lookup.
func (g *Graph) FirstHop(src, dst int) int {
	g.checkVertex(src)
	g.checkVertex(dst)
	return int(g.table().first[src*g.n+dst])
}

// Eccentricity returns the greatest BFS distance from v to any vertex,
// or -1 when some vertex is unreachable from v (infinite eccentricity).
// It reads the same table as FirstHop.
func (g *Graph) Eccentricity(v int) int {
	g.checkVertex(v)
	return int(g.table().ecc[v])
}

func (g *Graph) table() *routing {
	g.routeOnce.Do(func() { g.route = buildRouting(g.adj) })
	return g.route
}

// buildRouting runs one BFS per source over a sorted private copy of the
// adjacency lists. The graph's own lists keep their insertion order:
// callers iterate Neighbors and depend on that order.
func buildRouting(adj [][]int) *routing {
	n := len(adj)
	sorted := make([][]int, n)
	for v, ws := range adj {
		sorted[v] = slices.Sorted(slices.Values(ws))
	}

	r := &routing{first: make([]int32, n*n), ecc: make([]int32, n)}
	queue := make([]int, 0, n)
	dist := make([]int32, n)
	for src := range n {
		first := r.first[src*n : (src+1)*n]
		for i := range first {
			first[i] = -1
		}
		first[src], dist[src] = int32(src), 0
		queue = append(queue[:0], src)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			hop := first[v]
			for _, w := range sorted[v] {
				if first[w] != -1 {
					continue
				}
				if v == src {
					hop = int32(w)
				}
				first[w], dist[w] = hop, dist[v]+1
				queue = append(queue, w)
			}
		}
		r.ecc[src] = -1
		if len(queue) == n {
			r.ecc[src] = dist[queue[n-1]]
		}
	}
	return r
}
