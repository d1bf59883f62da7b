package fault

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/gc"
)

// checkIndex compares the bit index against the maps it mirrors: every
// node bit, every guard bit, and NodeFaulty/LinkFaulty at every
// (v, dim) — links the cube lacks included — against the map-only
// answer.
func checkIndex(t *testing.T, step int, s *Set) {
	t.Helper()
	c := s.Cube()
	guard := make(map[gc.NodeID]bool)
	for k := range s.links {
		guard[k.low] = true
	}
	for i := 0; i < c.Nodes(); i++ {
		v := gc.NodeID(i)
		if got, want := testBit(s.nodeBits, v), s.nodes[v]; got != want {
			t.Fatalf("step %d: node bit %d = %v, map says %v", step, v, got, want)
		}
		if got, want := testBit(s.linkBits, v), guard[v]; got != want {
			t.Fatalf("step %d: guard bit %d = %v, map says %v", step, v, got, want)
		}
		if got := s.NodeFaulty(v); got != s.nodes[v] {
			t.Fatalf("step %d: NodeFaulty(%d) = %v, map says %v", step, v, got, s.nodes[v])
		}
		for dim := uint(0); dim < c.N(); dim++ {
			want := s.links[normLink(v, dim)] || s.nodes[v] || s.nodes[v^(1<<dim)]
			if got := s.LinkFaulty(v, dim); got != want {
				t.Fatalf("step %d: LinkFaulty(%d, %d) = %v, map says %v", step, v, dim, got, want)
			}
		}
	}
}

// TestIndexMatchesMaps drives seeded random mutation sequences —
// AddNode, AddLink, RemoveNode, RemoveLink, Clone and MutateCopy — and
// checks the bit index against the maps after every step. Links
// sharing one low endpoint are marked together and removed one at a
// time, so the guard bit must outlive every removal but the last.
func TestIndexMatchesMaps(t *testing.T) {
	for _, nm := range [][2]uint{{7, 1}, {8, 2}} {
		c := gc.New(nm[0], nm[1])
		// low is the low endpoint of the most links in the cube.
		var low gc.NodeID
		var shared []uint
		for i := 0; i < c.Nodes(); i++ {
			var ds []uint
			for _, d := range c.LinkDims(gc.NodeID(i)) {
				if i&(1<<d) == 0 {
					ds = append(ds, d)
				}
			}
			if len(ds) > len(shared) {
				low, shared = gc.NodeID(i), ds
			}
		}
		if len(shared) < 3 {
			t.Fatalf("GC(%d,2^%d): no node is the low endpoint of 3 links", nm[0], nm[1])
		}
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewSet(c)
			for _, d := range shared {
				s.AddLink(low^(1<<d), d) // marked from the high endpoint
			}
			checkIndex(t, -1, s)
			for i, d := range shared {
				s.RemoveLink(low, d)
				checkIndex(t, -1, s)
				if last := i == len(shared)-1; testBit(s.linkBits, low) == last {
					t.Fatalf("guard bit of node %d after %d of %d removals: %v", low, i+1, len(shared), !last)
				}
			}

			for step := 0; step < 300; step++ {
				v := gc.NodeID(rng.Intn(c.Nodes()))
				dims := c.LinkDims(v)
				d := dims[rng.Intn(len(dims))]
				switch rng.Intn(8) {
				case 0, 1:
					s.AddNode(v)
				case 2, 3:
					s.AddLink(v, d)
				case 4:
					s.RemoveNode(v)
				case 5:
					s.RemoveLink(v, d)
				case 6:
					orig := s
					s = s.Clone()
					s.AddNode(v)
					checkIndex(t, step, orig)
				case 7:
					orig := s
					frozen := s.MutateCopy(func(m *Set) {
						m.RemoveLink(v, d)
						m.AddLink(v^(1<<d), d)
					})
					checkIndex(t, step, orig)
					checkIndex(t, step, frozen)
					s = frozen.Clone()
				}
				checkIndex(t, step, s)
			}
		}
	}
}
