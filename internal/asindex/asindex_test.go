package asindex

import (
	"math/rand"
	"testing"
)

// TestBitSetAgainstMap cross-checks every BitSet operation against a naive
// map implementation on randomised universes, including the float
// reductions whose addition order must match a sorted-key scan exactly.
func TestBitSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		for i := range w1 {
			w1[i] = rng.NormFloat64()
			w2[i] = rng.ExpFloat64()
		}
		a, b := NewBitSet(n), NewBitSet(n)
		am, bm := map[int32]bool{}, map[int32]bool{}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.4 {
				a.Set(int32(i))
				am[int32(i)] = true
			}
			if rng.Float64() < 0.4 {
				b.Set(int32(i))
				bm[int32(i)] = true
			}
		}
		if a.Count() != len(am) {
			t.Fatalf("Count = %d, want %d", a.Count(), len(am))
		}
		// AndNotCount and AndNotSum vs the map difference, summed in
		// ascending order (the order contract).
		diff := 0
		var wantSum, wantS1, wantS2 float64
		var prev int32 = -1
		a.ForEach(func(id int32) {
			if id <= prev {
				t.Fatalf("ForEach out of order: %d after %d", id, prev)
			}
			prev = id
			if !am[id] {
				t.Fatalf("ForEach visited unset id %d", id)
			}
		})
		for i := int32(0); i < int32(n); i++ {
			if am[i] && !bm[i] {
				diff++
				wantSum += w1[i]
				wantS1 += w1[i]
				wantS2 += w2[i]
			}
		}
		if got := a.AndNotCount(b); got != diff {
			t.Fatalf("AndNotCount = %d, want %d", got, diff)
		}
		if got := a.AndNotSum(b, w1); got != wantSum {
			t.Fatalf("AndNotSum = %v, want %v", got, wantSum)
		}
		if s1, s2 := a.AndNotSum2(b, w1, w2); s1 != wantS1 || s2 != wantS2 {
			t.Fatalf("AndNotSum2 = (%v,%v), want (%v,%v)", s1, s2, wantS1, wantS2)
		}
		// Sum/Sum2 over the union must equal the ascending-order scan.
		u := a.Clone()
		u.Or(b)
		var us, us1, us2 float64
		for i := int32(0); i < int32(n); i++ {
			if am[i] || bm[i] {
				us += w1[i]
				us1 += w1[i]
				us2 += w2[i]
			}
		}
		if got := u.Sum(w1); got != us {
			t.Fatalf("Sum = %v, want %v", got, us)
		}
		if s1, s2 := u.Sum2(w1, w2); s1 != us1 || s2 != us2 {
			t.Fatalf("Sum2 = (%v,%v), want (%v,%v)", s1, s2, us1, us2)
		}
		// And + Clear.
		inter := a.Clone()
		inter.And(b)
		wantInter := 0
		for i := int32(0); i < int32(n); i++ {
			if am[i] && bm[i] {
				wantInter++
				if !inter.Has(i) {
					t.Fatalf("And missing id %d", i)
				}
			}
		}
		if inter.Count() != wantInter {
			t.Fatalf("And count = %d, want %d", inter.Count(), wantInter)
		}
		inter.Clear()
		if inter.Count() != 0 {
			t.Fatal("Clear left bits set")
		}
	}
}

func TestSetList(t *testing.T) {
	b := NewBitSet(130)
	b.SetList([]int32{0, 63, 64, 129, 0})
	for _, id := range []int32{0, 63, 64, 129} {
		if !b.Has(id) {
			t.Errorf("missing id %d", id)
		}
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
}
