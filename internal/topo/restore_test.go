package topo

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// restoreParts are the dense parts of the chain graph 1 -> 2 -> 3 with
// a peer 4 of 2, as Restore takes them.
func restoreParts() (nets []Network, providers, customers, peers Relation) {
	nets = []Network{{ASN: 1}, {ASN: 2}, {ASN: 3}, {ASN: 4}}
	providers = Relation{Keys: []ASN{1, 2}, Lens: []uint32{1, 1}, List: []ASN{2, 3}}
	customers = Relation{Keys: []ASN{2, 3}, Lens: []uint32{1, 1}, List: []ASN{1, 2}}
	peers = Relation{Keys: []ASN{2, 4}, Lens: []uint32{1, 1}, List: []ASN{4, 2}}
	return nets, providers, customers, peers
}

// TestRestoreRefuses pins what Restore refuses, each with an error
// naming the fault: networks or keys out of ascending order or repeated,
// keys or list entries naming an ASN with no network, and lengths that do
// not add up to the list. The unchanged parts restore.
func TestRestoreRefuses(t *testing.T) {
	if _, err := Restore(restoreParts()); err != nil {
		t.Fatalf("the chain graph's parts: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(nets *[]Network, providers, customers, peers *Relation)
	}{
		{"networks out of order", "networks must ascend", func(n *[]Network, _, _, _ *Relation) { (*n)[1], (*n)[2] = (*n)[2], (*n)[1] }},
		{"repeated network", "networks must ascend", func(n *[]Network, _, _, _ *Relation) { (*n)[2].ASN = 2 }},
		{"keys out of order", "keys must ascend", func(_ *[]Network, p, _, _ *Relation) { p.Keys = []ASN{2, 1} }},
		{"repeated key", "keys must ascend", func(_ *[]Network, _, c, _ *Relation) { c.Keys = []ASN{2, 2} }},
		{"unknown key", "key ASN 9 has no network", func(_ *[]Network, _, _, r *Relation) { r.Keys = []ASN{2, 9} }},
		{"unknown entry", "entry ASN 7 has no network", func(_ *[]Network, p, _, _ *Relation) { p.List = []ASN{2, 7} }},
		{"lengths short of the list", "lengths add up to 1", func(_ *[]Network, p, _, _ *Relation) { p.Lens = []uint32{1, 0} }},
		{"lengths past the list", "lengths pass the 2 entries", func(_ *[]Network, _, c, _ *Relation) { c.Lens = []uint32{1, 2} }},
		{"a length per key", "2 keys but 1 lengths", func(_ *[]Network, _, _, r *Relation) { r.Lens = r.Lens[:1] }},
	} {
		nets, providers, customers, peers := restoreParts()
		tc.mutate(&nets, &providers, &customers, &peers)
		g, err := Restore(nets, providers, customers, peers)
		if err == nil || g != nil {
			t.Errorf("%s: Restore = (%v, %v), want a refusal", tc.name, g, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}
}

// TestFrozenListsAreCapped pins that an adjacency list of a frozen graph
// is a capped window of its plane: a caller's append reallocates instead
// of writing into the next network's list. It holds for a frozen graph
// and a restored one.
func TestFrozenListsAreCapped(t *testing.T) {
	g := chainGraph(t)
	g.Freeze()
	r, err := Restore(restoreParts())
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"frozen": g, "restored": r} {
		for _, of := range []func(ASN) []ASN{g.Providers, g.Customers, g.Peers} {
			for _, asn := range g.ASNs() {
				if list := of(asn); cap(list) != len(list) {
					t.Errorf("%s: list of ASN %d has %d entries in a %d-entry window", name, asn, len(list), cap(list))
				}
			}
		}
		_ = append(g.Providers(1), 99)
		if got := g.Providers(2); !slices.Equal(got, []ASN{3}) {
			t.Errorf("%s: appending to ASN 1's providers changed ASN 2's to %v", name, got)
		}
	}
}

// fuzzReader decodes the fuzz input a byte at a time; it reads 0 once
// the input is exhausted.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// asn draws an ASN from a small universe, so networks, keys and entries
// collide and repeat.
func (r *fuzzReader) asn() ASN { return ASN(r.next() % 24) }

// relation decodes one relation's parts in any order: up to 7 keys and
// lengths, a length sometimes dropped, and up to 15 list entries, which
// need not add up to the lengths.
func (r *fuzzReader) relation() Relation {
	var rel Relation
	for k := r.next() % 8; k > 0; k-- {
		rel.Keys = append(rel.Keys, r.asn())
		rel.Lens = append(rel.Lens, uint32(r.next()%4))
	}
	if r.next()%16 == 0 && len(rel.Lens) > 0 {
		rel.Lens = rel.Lens[:len(rel.Lens)-1]
	}
	for n := r.next() % 16; n > 0; n-- {
		rel.List = append(rel.List, r.asn())
	}
	return rel
}

// validParts reports whether rel satisfies Restore's contract over the
// network set held, and returns each key's list.
func validParts(rel Relation, held map[ASN]bool) (map[ASN][]ASN, bool) {
	if len(rel.Keys) != len(rel.Lens) {
		return nil, false
	}
	lists := map[ASN][]ASN{}
	pos := 0
	for i, key := range rel.Keys {
		if (i > 0 && key <= rel.Keys[i-1]) || !held[key] {
			return nil, false
		}
		n := int(rel.Lens[i])
		if pos+n > len(rel.List) {
			return nil, false
		}
		lists[key] = rel.List[pos : pos+n]
		pos += n
	}
	if pos != len(rel.List) {
		return nil, false
	}
	for _, asn := range rel.List {
		if !held[asn] {
			return nil, false
		}
	}
	return lists, true
}

// FuzzRestore pins Restore against its parts: decoded from arbitrary
// bytes, networks and relations come in any order, with repeats and
// unknown ASNs. Restore refuses exactly the parts that break its contract,
// never panics, and a graph it returns answers Len, ASNs, ID, ASN,
// Network, Providers, Customers and Peers exactly as the parts say.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	// The chain graph's parts: networks 1-4, then per relation its key
	// count, each key and length, a byte that keeps the last length, the
	// entry count and the entries.
	f.Add([]byte{4, 1, 2, 3, 4, 2, 1, 1, 2, 1, 1, 2, 2, 3, 2, 2, 1, 3, 1, 1, 2, 1, 2, 2, 2, 1, 4, 1, 1, 2, 4, 2})
	f.Add([]byte{3, 5, 5, 9, 1, 5, 1, 1, 1, 9})
	f.Add([]byte{6, 10, 3, 7, 1, 2, 8, 3, 1, 2, 3, 2, 2, 3, 4, 3, 10, 1, 7, 1, 3, 1, 8, 3, 2, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		var nets []Network
		for n := r.next() % 12; n > 0; n-- {
			asn := r.asn()
			nets = append(nets, Network{ASN: asn, Name: strconv.Itoa(len(nets)), SizeRank: len(nets)})
		}
		rels := [numRels]Relation{r.relation(), r.relation(), r.relation()}
		want := slices.Clone(nets)

		held := map[ASN]bool{}
		ok := true
		for i, n := range nets {
			ok = ok && (i == 0 || n.ASN > nets[i-1].ASN)
			held[n.ASN] = true
		}
		var lists [numRels]map[ASN][]ASN
		for k, rel := range rels {
			var valid bool
			lists[k], valid = validParts(rel, held)
			ok = ok && valid
		}

		g, err := Restore(nets, rels[0], rels[1], rels[2])
		if !ok {
			if err == nil {
				t.Fatalf("Restore accepted parts that break its contract: %+v %+v", want, rels)
			}
			return
		}
		if err != nil {
			t.Fatalf("Restore refused valid parts: %v", err)
		}
		if g.Len() != len(want) || len(g.ASNs()) != len(want) || !g.Frozen() {
			t.Fatalf("Len %d, %d ASNs, frozen %v; want %d networks, frozen", g.Len(), len(g.ASNs()), g.Frozen(), len(want))
		}
		for id, n := range want {
			if g.ASNs()[id] != n.ASN || g.ASN(int32(id)) != n.ASN {
				t.Errorf("id %d is ASN %d (ASNs %v), want %d", id, g.ASN(int32(id)), g.ASNs(), n.ASN)
			}
			if got, ok := g.ID(n.ASN); !ok || got != int32(id) {
				t.Errorf("ID(%d) = (%d, %v), want (%d, true)", n.ASN, got, ok, id)
			}
			if got := g.Network(n.ASN); got == nil || *got != n {
				t.Errorf("Network(%d) = %+v, want %+v", n.ASN, got, n)
			}
		}
		for asn := ASN(0); asn < 24; asn++ {
			if !held[asn] {
				if _, ok := g.ID(asn); ok || g.Network(asn) != nil {
					t.Errorf("ASN %d, which has no network, has an id or a record", asn)
				}
			}
			for k, of := range []func(ASN) []ASN{g.Providers, g.Customers, g.Peers} {
				if got := of(asn); !slices.Equal(got, lists[k][asn]) || cap(got) != len(got) {
					t.Errorf("%s list of ASN %d = %v (cap %d), want %v", relNames[k], asn, got, cap(got), lists[k][asn])
				}
			}
		}
	})
}
