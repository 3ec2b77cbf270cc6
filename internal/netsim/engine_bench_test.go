package netsim

import (
	"testing"
	"time"
)

// TestEventQueueOrdering pins the 4-ary heap to the (at, seq) total order:
// popping always yields the earliest timestamp, with schedule order
// breaking ties. Every ping leaves at time 0 and completes as a timeout,
// so the heap holds all the expiries at once.
func TestEventQueueOrdering(t *testing.T) {
	var e Engine
	n := mute(&e)
	const total = 2000
	var got []int32
	var gotAt []time.Duration
	e.OnPing(func(r PingResult) {
		got = append(got, r.Tag)
		gotAt = append(gotAt, e.Now())
		if r.Tag == total {
			// Re-scheduling from inside a handler: an expiry pushed
			// mid-run, the sift-up path the campaigns exercise.
			n.Ping(e.Now(), ip("192.0.2.1"), time.Millisecond, -1)
		}
	})
	// An adversarial schedule: decreasing times and duplicate timestamps.
	at := func(i int) time.Duration { return time.Duration((total-i)%97) * time.Millisecond }
	for i := 0; i < total; i++ {
		n.Ping(0, ip("192.0.2.1"), at(i), int32(i))
	}
	n.Ping(0, ip("192.0.2.1"), 5*time.Millisecond, total)
	e.Run()
	if len(got) != total+2 {
		t.Fatalf("ran %d events, want %d", len(got), total+2)
	}
	// Time never goes backwards — this also places the handler-scheduled
	// event after every earlier timestamp and before every later one.
	for i := 1; i < len(gotAt); i++ {
		if gotAt[i] < gotAt[i-1] {
			t.Fatalf("clock went backwards at event %d: %v after %v", i, gotAt[i], gotAt[i-1])
		}
	}
	// Events with equal times must run in schedule order.
	nested := -1
	for i, id := range got {
		if id < 0 {
			nested = i
			continue
		}
		if i > 0 && got[i-1] >= 0 && got[i-1] < total && id < total {
			a, b := int(got[i-1]), int(id)
			if at(a) > at(b) || (at(a) == at(b) && a > b) {
				t.Fatalf("events out of order at %d: %d before %d", i, a, b)
			}
		}
	}
	// The nested event was scheduled from the 5 ms handler for 6 ms, with
	// the largest seq of any 6 ms event — so it must run at exactly 6 ms,
	// after every pre-scheduled 6 ms event.
	if nested < 0 {
		t.Fatal("nested event never ran")
	}
	if gotAt[nested] != 6*time.Millisecond {
		t.Fatalf("nested event ran at %v, want 6ms", gotAt[nested])
	}
	if nested+1 < len(got) && gotAt[nested+1] == 6*time.Millisecond {
		t.Fatalf("nested event (latest 6ms seq) ran before a pre-scheduled 6ms event")
	}
}

// BenchmarkEngineSchedule measures the scheduler's push/pop throughput:
// a churning queue where every popped event schedules a successor, the
// access pattern the campaign simulations generate.
func BenchmarkEngineSchedule(b *testing.B) {
	const depth = 1024 // standing queue size
	var e Engine
	n := mute(&e)
	// Pseudo-random-ish but deterministic offsets spread events so the
	// heap actually sifts instead of degenerating to FIFO.
	offset := func(k int) time.Duration { return time.Duration(1+int64(k)*2654435761%1000) * time.Microsecond }
	for i := 0; i < depth; i++ {
		e.schedule(offset(i), event{kind: evSetTTL, id: n.id, frame: frame{ttl: 64}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
		e.schedule(e.now+offset(depth+i), event{kind: evSetTTL, id: n.id, frame: frame{ttl: 64}})
	}
}
