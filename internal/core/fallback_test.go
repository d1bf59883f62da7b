package core

import (
	"math/rand"
	"slices"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
)

// TestFallbackMatchesShortestPath pins the pooled BFS fallback
// to the graph.ShortestPath oracle over healthyView, byte for byte:
// the same path on every reachable pair, no path on every unreachable
// one (faulty endpoints and severed tree edges included), and the
// caller's dst prefix left intact either way.
func TestFallbackMatchesShortestPath(t *testing.T) {
	const pairsPerSet = 60
	unreachable := 0
	for n := uint(8); n <= 13; n++ {
		for _, alpha := range []uint{2, 3} {
			cube := gc.New(n, alpha)
			rng := rand.New(rand.NewSource(int64(100*n + alpha)))
			for pattern := 0; pattern < 3; pattern++ {
				fs := fault.NewSet(cube)
				switch pattern {
				case 0: // light mixed faults, the cold-misses shape
					fs.InjectRandomNodes(rng, cube.Nodes()/100)
					fs.InjectRandomLinks(rng, 40)
					fs.InjectRandomLinksBelowAlpha(rng, 8)
				case 1: // heavy node faults
					fs.InjectRandomNodes(rng, cube.Nodes()/4)
				case 2: // a severed tree edge plus scattered faults
					edges := cube.Tree().Edges()
					fs.InjectSeveringFaults(edges[rng.Intn(len(edges))].Ends())
					fs.InjectRandomNodes(rng, cube.Nodes()/50)
				}
				fs.Freeze()
				r := NewRouter(cube, WithFaults(fs))
				hv := healthyView{cube: cube, faults: fs}
				prefix := []gc.NodeID{7, 7, 7}
				for i := 0; i < pairsPerSet; i++ {
					s := gc.NodeID(rng.Intn(cube.Nodes()))
					d := gc.NodeID(rng.Intn(cube.Nodes()))
					if i%20 == 0 {
						d = s
					}
					want := graph.ShortestPath(hv, s, d)
					got, ok := r.appendFallback(slices.Clone(prefix), s, d)
					if !slices.Equal(got[:len(prefix)], prefix) {
						t.Fatalf("GC(%d,2^%d) %d->%d: dst prefix overwritten: %v", n, alpha, s, d, got)
					}
					if ok != (want != nil) || !slices.Equal(got[len(prefix):], want) {
						t.Fatalf("GC(%d,2^%d) pattern %d %d->%d: fallback %v (ok=%v), ShortestPath %v",
							n, alpha, pattern, s, d, got[len(prefix):], ok, want)
					}
					if want == nil {
						unreachable++
					}
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no unreachable pair drawn; the nil case went unchecked")
	}
}

// TestFallbackGenerationWrap: when the visit stamp wraps, the search
// sweeps its stale marks once and still returns the oracle's path.
// The marks left behind carry the stamp the wrapped search restarts
// at, so a search that skipped the sweep would see every node visited.
func TestFallbackGenerationWrap(t *testing.T) {
	cube := gc.New(8, 2)
	fs := fault.NewSet(cube)
	fs.InjectRandomNodes(rand.New(rand.NewSource(3)), 20, 1, 200)
	r := NewRouter(cube, WithFaults(fs.Freeze()))
	b := &bfsScratch{visit: make([]uint16, cube.Nodes()), gen: bfsGenMax}
	for i := range b.visit {
		b.visit[i] = 1 << bfsDimBits
	}
	r.bfs.New = func() any { return b } // the pool hands out b alone
	want := graph.ShortestPath(healthyView{cube: cube, faults: fs}, 1, 200)
	got, ok := r.appendFallback(nil, 1, 200)
	if !ok || !slices.Equal(got, want) {
		t.Fatalf("after the wrap: got %v, want %v", got, want)
	}
	if b.gen != 1 {
		t.Fatalf("gen = %d after the wrap, want 1", b.gen)
	}
}
