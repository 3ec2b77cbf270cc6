// Package asindex is the set algebra of the Section 4 analyses: an
// allocation-free BitSet over the dense ids a frozen topo.Graph assigns
// (see topo.Graph.ID). The graph assigns ids in ascending ASN order, and
// that order is load-bearing — iterating a BitSet visits ids, and
// therefore ASNs, in ascending order, which is exactly the fixed
// floating-point addition order the determinism suite pins. Swapping a
// map[topo.ASN]bool for a BitSet therefore changes the cost of the set
// algebra (word-parallel unions, popcount scans) but never its result.
package asindex

import "math/bits"

// BitSet is a fixed-capacity set of dense ids backed by uint64 words. All
// iteration orders are ascending-id (= ascending ASN), so floating-point
// reductions over a BitSet have a scheduling-independent addition order.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set with capacity for ids [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Cap returns the id capacity the set was created with.
func (b *BitSet) Cap() int { return b.n }

// Set adds id to the set.
func (b *BitSet) Set(id int32) { b.words[id>>6] |= 1 << (uint(id) & 63) }

// Has reports whether id is in the set.
func (b *BitSet) Has(id int32) bool {
	return b.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// SetList adds every id in the (arbitrary-order) list.
func (b *BitSet) SetList(ids []int32) {
	for _, id := range ids {
		b.words[id>>6] |= 1 << (uint(id) & 63)
	}
}

// Clear empties the set in place, keeping its capacity.
func (b *BitSet) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns an independent copy.
func (b *BitSet) Clone() *BitSet {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &BitSet{words: w, n: b.n}
}

// Or unions o into b. The sets must come from the same universe.
func (b *BitSet) Or(o *BitSet) {
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// And intersects b with o in place.
func (b *BitSet) And(o *BitSet) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Count returns the set cardinality via popcount.
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndNotCount returns |b \ mask| without materialising the difference.
func (b *BitSet) AndNotCount(mask *BitSet) int {
	n := 0
	for i, w := range b.words {
		n += bits.OnesCount64(w &^ mask.words[i])
	}
	return n
}

// ForEach visits the set ids in ascending order.
func (b *BitSet) ForEach(fn func(id int32)) {
	for i, w := range b.words {
		base := int32(i) << 6
		for w != 0 {
			fn(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Sum accumulates weight[id] over the set ids in ascending order — the
// same addition order as summing over the sorted ASN list.
func (b *BitSet) Sum(weight []float64) float64 {
	var s float64
	for i, w := range b.words {
		base := int32(i) << 6
		for w != 0 {
			s += weight[base+int32(bits.TrailingZeros64(w))]
			w &= w - 1
		}
	}
	return s
}

// Sum2 accumulates two weight planes in one ascending-order scan.
func (b *BitSet) Sum2(w1, w2 []float64) (s1, s2 float64) {
	for i, w := range b.words {
		base := int32(i) << 6
		for w != 0 {
			id := base + int32(bits.TrailingZeros64(w))
			s1 += w1[id]
			s2 += w2[id]
			w &= w - 1
		}
	}
	return s1, s2
}

// AndNotSum accumulates weight[id] over b \ mask in ascending id order —
// the marginal-gain scan of the greedy expansions: the ids an IXP would
// newly cover, summed in the exact order the map-based implementation
// summed its sorted candidate list.
func (b *BitSet) AndNotSum(mask *BitSet, weight []float64) float64 {
	var s float64
	for i, w := range b.words {
		w &^= mask.words[i]
		base := int32(i) << 6
		for w != 0 {
			s += weight[base+int32(bits.TrailingZeros64(w))]
			w &= w - 1
		}
	}
	return s
}

// AndNotSum2 is AndNotSum over two weight planes in one scan.
func (b *BitSet) AndNotSum2(mask *BitSet, w1, w2 []float64) (s1, s2 float64) {
	for i, w := range b.words {
		w &^= mask.words[i]
		base := int32(i) << 6
		for w != 0 {
			id := base + int32(bits.TrailingZeros64(w))
			s1 += w1[id]
			s2 += w2[id]
			w &= w - 1
		}
	}
	return s1, s2
}
