package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomGraph builds a seeded random graph on n vertices with m edge
// draws. Sparse draws leave it disconnected, which the routing tests
// want to cover too.
func randomGraph(r *rand.Rand, n, m int) *Graph {
	g := New(n)
	for k := 0; k < m; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestFirstHopMatchesShortestPath: for every pair of seeded random graphs,
// connected or not, FirstHop is the second vertex of the reference BFS
// path, -1 when there is none, and src itself when src == dst.
func TestFirstHopMatchesShortestPath(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	disconnected := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(3*n+1))
		if !g.Connected() {
			disconnected++
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := -1
				switch p := shortestPath(g, src, dst); {
				case src == dst:
					want = src
				case p != nil:
					want = p[1]
				}
				if got := g.FirstHop(src, dst); got != want {
					t.Fatalf("trial %d: FirstHop(%d,%d) = %d, want %d", trial, src, dst, got, want)
				}
			}
		}
	}
	if disconnected == 0 {
		t.Fatal("no disconnected graph drawn; the unreachable case went untested")
	}
}

// TestEccentricityMatchesBFS: eccentricity is the largest BFS distance,
// and -1 as soon as one vertex is unreachable.
func TestEccentricityMatchesBFS(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(3*n+1))
		for v := 0; v < n; v++ {
			want := 0
			for _, d := range g.BFSFrom(v) {
				if d == -1 {
					want = -1
					break
				}
				want = max(want, d)
			}
			if got := g.Eccentricity(v); got != want {
				t.Fatalf("trial %d: Eccentricity(%d) = %d, want %d", trial, v, got, want)
			}
		}
	}
	if e := path(5).Eccentricity(2); e != 2 {
		t.Errorf("path centre eccentricity = %d, want 2", e)
	}
}

// TestRoutingConcurrentReaders: goroutines racing to build and read the
// table of a fresh graph all see the same answers. Run under -race.
func TestRoutingConcurrentReaders(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(13)), 30, 60)
	n := g.N()
	const readers = 8
	got := make([][]int, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []int
			for src := 0; src < n; src++ {
				out = append(out, g.Eccentricity(src))
				for dst := 0; dst < n; dst++ {
					out = append(out, g.FirstHop(src, dst))
				}
			}
			got[i] = out
		}()
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if !slices.Equal(got[i], got[0]) {
			t.Fatalf("reader %d saw a different table than reader 0", i)
		}
	}
}

// TestRoutingFreezesGraph: building the table leaves Neighbors in
// insertion order, and AddEdge panics from then on.
func TestRoutingFreezesGraph(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.FirstHop(1, 3)
	if nb := g.Neighbors(0); !slices.Equal(nb, []int{3, 1, 2}) {
		t.Errorf("Neighbors(0) = %v after routing, want insertion order [3 1 2]", nb)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddEdge after FirstHop should panic")
		}
	}()
	g.AddEdge(1, 2)
}

// TestCloneIsUnfrozen: a clone of a frozen graph can still be extended.
func TestCloneIsUnfrozen(t *testing.T) {
	g := path(3)
	g.Eccentricity(0)
	c := g.Clone()
	c.AddEdge(0, 2)
	if c.FirstHop(0, 2) != 2 || g.FirstHop(0, 2) != 1 {
		t.Error("clone and original should route independently")
	}
}
