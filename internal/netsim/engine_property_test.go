package netsim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"remotepeering/internal/stats"
)

func TestEngineExecutionOrderProperty(t *testing.T) {
	// For any schedule, events fire in non-decreasing time order, with
	// FIFO order among equal timestamps, and the clock never runs
	// backwards.
	f := func(seed int64, n uint8) bool {
		src := stats.NewSource(seed)
		var e Engine
		node := mute(&e)
		count := int(n)%64 + 1
		type fired struct {
			at  time.Duration
			seq int
		}
		var log []fired
		e.OnPing(func(r PingResult) {
			log = append(log, fired{at: e.Now(), seq: int(r.Tag)})
		})
		times := make([]time.Duration, count)
		for i := 0; i < count; i++ {
			at := time.Duration(src.Intn(50)) * time.Second
			times[i] = at
			node.Ping(at, ip("192.0.2.1"), 0, int32(i))
		}
		e.Run()
		if len(log) != count {
			return false
		}
		// Times non-decreasing, and matching the scheduled instants.
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		for i, f := range log {
			if f.at != times[i] {
				return false
			}
			if i > 0 && log[i-1].at == f.at && log[i-1].seq > f.seq {
				return false // FIFO violated among equal timestamps
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEngineNestedSchedulingProperty(t *testing.T) {
	// Events scheduled from within events still respect ordering.
	f := func(seed int64, n uint8) bool {
		src := stats.NewSource(seed)
		var e Engine
		node := mute(&e)
		count := int(n)%20 + 1
		var log []time.Duration
		extras := make([]time.Duration, count)
		e.OnPing(func(r PingResult) {
			log = append(log, e.Now())
			if r.Tag >= 0 {
				node.Ping(e.Now()+extras[r.Tag], ip("192.0.2.1"), 0, -1)
			}
		})
		for i := 0; i < count; i++ {
			at := time.Duration(src.Intn(20)) * time.Second
			extras[i] = time.Duration(1+src.Intn(10)) * time.Second
			node.Ping(at, ip("192.0.2.1"), 0, int32(i))
		}
		e.Run()
		if len(log) != 2*count {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i] < log[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
