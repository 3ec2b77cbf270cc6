package netsim

import (
	"cmp"
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
