package graph

import (
	"slices"
	"testing"
)

// FuzzBuilder drives a random AddEdge/HasEdge/Freeze sequence against a
// map-based reference builder. The sorted-row builder must agree on every
// ok and error result, on Degree and M, and freeze to exactly the CSR the
// reference adjacency sets describe — and stay usable after a Freeze.
//
// The first byte sizes the graph (1–32 nodes); every following byte
// triple is one operation: op, u, v. Endpoints range over [-1, n] so
// out-of-range calls are exercised too.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 0, 2, 1, 1, 1, 2})
	f.Add([]byte{7, 0, 3, 1, 0, 3, 2, 0, 1, 3, 1, 3, 1, 2, 0, 0, 2, 3, 4})
	f.Add([]byte{31, 0, 0, 0, 0, 8, 1, 0, 9, 1, 0, 1, 8, 2, 0, 0, 0, 32, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%32
		b := NewBuilder(n)
		ref := make([]map[int]bool, n)
		for u := range ref {
			ref[u] = map[int]bool{}
		}
		refM := 0
		end := func(x byte) int { return int(x)%(n+2) - 1 }
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			u, v := end(ops[1]), end(ops[2])
			inRange := u >= 0 && u < n && v >= 0 && v < n
			switch ops[0] % 4 {
			case 0, 1:
				ok, err := b.AddEdge(u, v)
				wantOK := inRange && u != v && !ref[u][v]
				if (err != nil) == inRange || ok != wantOK {
					t.Fatalf("AddEdge(%d,%d) = (%v, %v), want ok=%v in-range=%v", u, v, ok, err, wantOK, inRange)
				}
				if wantOK {
					ref[u][v], ref[v][u] = true, true
					refM++
				}
			case 2:
				if got, want := b.HasEdge(u, v), inRange && ref[u][v]; got != want {
					t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
				}
			case 3:
				checkFrozen(t, b.Freeze(), ref, refM)
			}
		}
		if b.M() != refM {
			t.Fatalf("M = %d, want %d", b.M(), refM)
		}
		for u := -1; u <= n; u++ {
			want := 0
			if u >= 0 && u < n {
				want = len(ref[u])
			}
			if got := b.Degree(u); got != want {
				t.Fatalf("Degree(%d) = %d, want %d", u, got, want)
			}
		}
		checkFrozen(t, b.Freeze(), ref, refM)
	})
}

// checkFrozen compares a frozen graph with the reference adjacency sets:
// same N and M, and every CSR row the sorted neighbour set, laid out
// back to back.
func checkFrozen(t *testing.T, g *Graph, ref []map[int]bool, m int) {
	t.Helper()
	if g.N() != len(ref) || g.M() != m {
		t.Fatalf("frozen N=%d M=%d, want N=%d M=%d", g.N(), g.M(), len(ref), m)
	}
	base := 0
	for u, set := range ref {
		want := make([]int32, 0, len(set))
		//accu:allow maporder -- collected, then sorted
		for v := range set {
			want = append(want, int32(v))
		}
		slices.Sort(want)
		if got := g.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("frozen row %d = %v, want %v", u, got, want)
		}
		if g.AdjBase(u) != base {
			t.Fatalf("AdjBase(%d) = %d, want %d", u, g.AdjBase(u), base)
		}
		base += len(set)
	}
	if g.AdjSize() != base {
		t.Fatalf("AdjSize = %d, want %d", g.AdjSize(), base)
	}
}
