package netsim

import (
	"cmp"
	"net/netip"
	"slices"
	"testing"
	"time"
)

// FuzzPlanOrder pins the plan merge against a sort: whatever order pings
// are planned in — equal instants, descending stretches, pings planned
// from the sink during Run — they are sent in (at, seq) order, seq being
// planning order. Each input byte plans one ping: its low 6 bits are a
// step in milliseconds, bit 6 steps back instead of forward, and bit 7
// plans the ping from the sink, the step after the completion of the last
// ping planned before Run. Every ping of the mute node times out after
// the same second, so the sink's log is the send order.
func FuzzPlanOrder(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1})                      // one ascending run
	f.Add([]byte{0, 0, 0x41, 0, 0x43, 5})          // equal instants, steps back
	f.Add([]byte{3, 0x80, 0x82, 0x81, 2, 0x80})    // pings planned from the sink
	f.Add([]byte{0x7f, 0x7f, 0x3f, 0xc1, 0xff, 0}) // mixed
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		const timeout = time.Second
		type key struct {
			at  time.Duration
			seq int32
		}
		var (
			e        Engine
			planned  []key
			children = map[int32][]time.Duration{} // parent tag → steps
			log      []key
		)
		n := mute(&e)
		plan := func(at time.Duration) {
			tag := int32(len(planned))
			planned = append(planned, key{at, tag})
			n.Ping(at, ip("192.0.2.1"), timeout, tag)
		}
		e.OnPing(func(r PingResult) {
			log = append(log, key{r.SentAt, r.Tag})
			for _, step := range children[r.Tag] {
				plan(e.Now() + step)
			}
		})
		cursor, parent := time.Second, int32(-1)
		for _, b := range data {
			step := time.Duration(b&0x3f) * time.Millisecond
			if b&0x80 != 0 {
				if parent >= 0 {
					children[parent] = append(children[parent], step)
				}
				continue
			}
			if b&0x40 != 0 {
				cursor = max(0, cursor-step)
			} else {
				cursor += step
			}
			parent = int32(len(planned))
			plan(cursor)
		}
		e.Run()
		slices.SortFunc(planned, func(a, b key) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if !slices.Equal(log, planned) {
			t.Fatalf("sent %v, want %v", log, planned)
		}
	})
}

// roundSweep is a sweep shaped like a looking glass's rounds: ping k is
// ping p of round r's query to target ti, k = (r·targets + ti)·pings + p,
// sent at the round's start + ti·spacing + p ms. Its tags count up from
// tag0 in index order.
type roundSweep struct {
	starts  []time.Duration
	targets int
	pings   int
	spacing time.Duration
	tag0    int32
}

func (s *roundSweep) Len() int { return len(s.starts) * s.targets * s.pings }

func (s *roundSweep) Ping(k int) (time.Duration, netip.Addr, int32) {
	q, p := k/s.pings, k%s.pings
	r, ti := q/s.targets, q%s.targets
	return s.starts[r] + time.Duration(ti)*s.spacing + time.Duration(p)*time.Millisecond, ip("192.0.2.1"), s.tag0 + int32(k)
}

// FuzzSweepOrder pins the sweep merge against a sort: sweeps of any shape
// — overlapping or descending rounds, queries that interleave, empty
// sweeps — mixed with single pings, some of either planned from the sink
// during Run, are sent in (at, seq) order, seq being planning order. Each
// item starts with a byte whose bit 7 plans it from the sink, the step
// after the completion of the last ping planned before Run, and whose bit
// 6 makes it a sweep. A single ping's low 5 bits are a step in
// milliseconds from the completion, or from a cursor before Run, which
// bit 5 steps back instead. A sweep reads a shape byte (rounds 0–3,
// targets 1–4, pings 1–4), a query spacing byte in milliseconds, and one
// byte per round, its start in milliseconds after the cursor or the
// completion. Every ping of the mute node times out after the same
// second, so the sink's log is the send order.
func FuzzSweepOrder(f *testing.F) {
	f.Add([]byte{0x40, 0x3f, 60, 0, 10, 20})             // one sweep, rounds apart
	f.Add([]byte{0x40, 0x02, 0, 0, 0})                   // equal instants in one sweep
	f.Add([]byte{0x40, 0x3f, 1, 5, 0, 5})                // interleaving queries, overlapping rounds
	f.Add([]byte{0x40, 0x00, 3, 2, 0x40, 0x3f, 2, 9, 3}) // an empty sweep, then a descending one
	f.Add([]byte{4, 0x40, 0x17, 7, 3, 0x85, 0xc0, 0x1e, 2, 1, 0, 0x21, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		const timeout = time.Second
		type key struct {
			at  time.Duration
			seq int32
		}
		var (
			e        Engine
			planned  []key
			children = map[int32][]func(){} // parent tag → plans
			log      []key
		)
		n := mute(&e)
		single := func(at time.Duration) {
			tag := int32(len(planned))
			planned = append(planned, key{at, tag})
			n.Ping(at, ip("192.0.2.1"), timeout, tag)
		}
		sweep := func(s *roundSweep, base time.Duration) {
			for r := range s.starts {
				s.starts[r] += base
			}
			s.tag0 = int32(len(planned))
			for k := range s.Len() {
				at, _, tag := s.Ping(k)
				planned = append(planned, key{at, tag})
			}
			e.PlanSweep(n, timeout, s)
		}
		e.OnPing(func(r PingResult) {
			log = append(log, key{r.SentAt, r.Tag})
			for _, plan := range children[r.Tag] {
				plan()
			}
		})
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cursor, parent := time.Second, int32(-1)
		for len(data) > 0 {
			b := next()
			step := time.Duration(b&0x1f) * time.Millisecond
			var s *roundSweep
			if b&0x40 != 0 {
				shape := next()
				s = &roundSweep{
					starts:  make([]time.Duration, shape&3),
					targets: 1 + int(shape>>2&3),
					pings:   1 + int(shape>>4&3),
					spacing: time.Duration(next()&0x3f) * time.Millisecond,
				}
				for r := range s.starts {
					s.starts[r] = time.Duration(next()&0x3f) * time.Millisecond
				}
			}
			if b&0x80 != 0 {
				if parent >= 0 {
					children[parent] = append(children[parent], func() {
						if s != nil {
							sweep(s, e.Now())
						} else {
							single(e.Now() + step)
						}
					})
				}
				continue
			}
			if s != nil {
				sweep(s, cursor)
			} else {
				if b&0x20 != 0 {
					cursor = max(0, cursor-step)
				} else {
					cursor += step
				}
				single(cursor)
			}
			if len(planned) > 0 {
				parent = int32(len(planned) - 1)
			}
		}
		e.Run()
		slices.SortFunc(planned, func(a, b key) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if !slices.Equal(log, planned) {
			t.Fatalf("sent %v, want %v", log, planned)
		}
	})
}
