// Package netsim is a deterministic discrete-event simulator of the
// layer-2/layer-3 world the paper measures: IXP switching fabrics
// (possibly spanning multiple locations), remote-peering pseudowires that
// attach distant routers to those fabrics, IP routers and hosts with TTL
// semantics, and ICMP echo. It reproduces the observables the paper's
// detector consumes — ping RTTs and reply TTLs from looking-glass servers —
// including every failure mode the detector's six filters were designed
// for: congestion jitter, replies that take an extra IP hop, operating
// systems that change their initial TTL mid-campaign, blackholing, and
// multi-location IXP fabrics.
//
// Packets are values: a frame carries only the fields the simulation
// reads, and no wire format is built, checksummed or parsed. Events are
// typed records in one heap, and ping results complete into one sink per
// engine, so the simulator allocates per engine, not per packet.
//
// A campaign's pings are planned as sweeps, which the engine never
// materializes or sorts: a Sweep generates ping k's send time, target and
// tag when asked, and the engine asks when the merge reaches it. A
// sweep's pings fall into ascending runs — a looking glass queries its
// targets in time order, round after round — and the engine merges the
// runs with the event heap through a second, small heap holding each
// run's earliest unsent ping. The merge is exact for any plan, including
// pings planned out of order or from a sink during Run.
//
// The simulator is single-threaded and deterministic: all randomness comes
// from stats.Source streams seeded by the caller, and events at equal
// timestamps fire in schedule order.
package netsim

import (
	"net/netip"
	"runtime"
	"time"
)

// Engine is the discrete-event core. The zero value is ready to use.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue eventQueue

	// sweeps holds the planned sweeps in planning order. A sweep's pings
	// fall into consecutive runs ascending in (at, seq): a ping continues
	// the run of the one before it unless it is earlier. heads holds
	// each run's earliest unsent ping, its id the sweep's index.
	sweeps []plannedSweep
	heads  eventQueue

	nodes  []*Node
	ifaces []*Iface
	traces []*traceState

	onPing  func(PingResult)
	onTrace func(TracerouteResult)
}

// eventKind says what an event does when it fires.
type eventKind uint8

const (
	// evDeliver hands frame to interface id.
	evDeliver eventKind = iota
	// evSend routes and transmits frame from node id (an ICMP answer,
	// after the node's processing delay).
	evSend
	// evExpire ends probe serial of node id if it is still unanswered.
	evExpire
	// evSetTTL switches node id's initial TTL to frame.ttl.
	evSetTTL
	// evTrace starts traceroute id.
	evTrace
)

// event is one scheduled action. It holds no pointers, so the queue is
// never scanned by the garbage collector.
type event struct {
	at     time.Duration
	seq    uint64
	id     int32
	serial uint32
	frame  frame
	kind   eventKind
}

// Sweep is a batch of echo requests from one node, generated on demand:
// the engine asks for a ping only when the merge reaches it, and stores
// no per-ping record. Ping must return the same ping for k every time it
// is asked while the engine runs the sweep.
type Sweep interface {
	// Len is the number of pings in the sweep.
	Len() int
	// Ping returns ping k's send time, destination and tag, for k in
	// [0, Len()).
	Ping(k int) (at time.Duration, dst netip.Addr, tag int32)
}

// plannedSweep is a sweep as planned: its sending node, its pings'
// timeout, and the seq before its first ping's. Ping k's seq is
// seq0+k+1.
type plannedSweep struct {
	Sweep
	len     int
	seq0    uint64
	timeout time.Duration
	node    int32
}

// next returns the send time of ping k+1, and whether that ping continues
// the run of ping k, sent at at: whether it exists and is not earlier.
func (s *plannedSweep) next(k int, at time.Duration) (time.Duration, bool) {
	if k+1 == s.len {
		return 0, false
	}
	next, _, _ := s.Ping(k + 1)
	return next, next >= at
}

// earlier is the total event order: time, then schedule sequence. (at,
// seq) pairs are unique, so the execution order of the heap merged with
// the sweeps' runs is fully determined — no layout leaks into results.
func earlier(at time.Duration, seq uint64, oat time.Duration, oseq uint64) bool {
	if at != oat {
		return at < oat
	}
	return seq < oseq
}

func (e event) before(o event) bool { return earlier(e.at, e.seq, o.at, o.seq) }

// eventQueue is an inlined 4-ary min-heap keyed on (at, seq): monomorphic,
// allocation-free after slice growth, and — being 4-ary — about half the
// sift-down levels per pop of a binary heap.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	q.down()
	return root
}

// down restores the heap order after the root's key grew.
func (h eventQueue) down() {
	i := 0
	for {
		first := i<<2 + 1
		if first >= len(h) {
			break
		}
		m := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Now returns the current simulation time (offset from the simulation
// epoch, which the world generator aligns with the start of the paper's
// October-2013 measurement campaign).
func (e *Engine) Now() time.Duration { return e.now }

// OnPing registers the sink every ping of the engine completes into:
// exactly once per planned ping, with the reply or with TimedOut set.
func (e *Engine) OnPing(sink func(PingResult)) { e.onPing = sink }

// OnTraceroute registers the sink every traceroute of the engine
// completes into, once per traceroute.
func (e *Engine) OnTraceroute(sink func(TracerouteResult)) { e.onTrace = sink }

// schedule queues ev at the absolute simulation time at. Scheduling in
// the past panics: it always indicates a bug in a model component, and
// silently reordering events would destroy determinism.
func (e *Engine) schedule(at time.Duration, ev event) {
	if at < e.now {
		panic("netsim: scheduling into the past")
	}
	e.seq++
	ev.at, ev.seq = at, e.seq
	e.queue.push(ev)
}

// PlanSweep plans the sweep's pings from node n. Each completes into the
// engine's ping sink exactly once, as a Ping does: with the reply, or
// with TimedOut set after timeout. The pings take the sweep's Len()
// schedule sequence numbers in index order, the ones planning them one
// at a time would take, so the engine sends them exactly as it would
// have. PlanSweep scans the sweep once, pushing the first ping of each
// ascending run into the run heads; step asks for every later ping when
// it sends the one before it. Planning a ping in the past panics, as
// scheduling an event there does.
func (e *Engine) PlanSweep(n *Node, timeout time.Duration, s Sweep) {
	count := s.Len()
	if count == 0 {
		return
	}
	e.sweeps = append(e.sweeps, plannedSweep{Sweep: s, len: count, seq0: e.seq, timeout: timeout, node: n.id})
	id := int32(len(e.sweeps) - 1)
	var last time.Duration
	for k := range count {
		at, _, _ := s.Ping(k)
		if at < e.now {
			panic("netsim: scheduling into the past")
		}
		if k == 0 || at < last {
			e.heads.push(event{at: at, seq: e.seq + uint64(k) + 1, id: id})
		}
		last = at
	}
	e.seq += uint64(count)
}

// yieldEvery is how many events Run executes between yields of the
// processor: about a millisecond of simulation at a few hundred
// nanoseconds an event.
const yieldEvery = 4096

// Run executes events until the heap and the sweeps are both drained.
//
// One IXP's campaign runs for up to tens of milliseconds, so Run yields
// the processor every yieldEvery events. Until a goroutine yields, a
// timer parked on its processor fires only when the runtime preempts it,
// up to 10 ms late, whenever no other processor runs it — as during a GC
// mark phase, when an idle processor runs the mark worker instead. In a
// server that ticks a live world beside its reads, those late timers made
// the read tail. Yielding changes nothing the simulation computes.
func (e *Engine) Run() {
	for n := 1; e.step(); n++ {
		if n%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	e.sweeps = nil
}

// step executes the earliest of the event heap's top and the earliest run
// head, and reports whether there was one.
func (e *Engine) step() bool {
	if len(e.heads) > 0 && (len(e.queue) == 0 || e.heads[0].before(e.queue[0])) {
		head := &e.heads[0]
		s := &e.sweeps[head.id]
		at, k := head.at, int(head.seq-s.seq0-1)
		_, dst, tag := s.Ping(k)
		node, timeout := s.node, s.timeout
		// The sweep's next ping continues this run if it is not earlier
		// (PlanSweep made it a run's head otherwise), and replaces this
		// one as the run's head.
		if next, ok := s.next(k, at); ok {
			head.at, head.seq = next, head.seq+1
			e.heads.down()
		} else {
			e.heads.pop()
		}
		e.now = at
		e.nodes[node].ping(dst, timeout, tag)
		return true
	}
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	switch ev.kind {
	case evDeliver:
		in := e.ifaces[ev.id]
		in.Node.receive(in, ev.frame)
	case evSend:
		e.nodes[ev.id].send(ev.frame)
	case evExpire:
		e.nodes[ev.id].expire(ev.serial)
	case evSetTTL:
		e.nodes[ev.id].os.InitTTL = ev.frame.ttl
	case evTrace:
		e.traces[ev.id].step()
	}
	return true
}
