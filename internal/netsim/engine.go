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
// A campaign's pings are planned before Run into one array, which the
// engine never sorts. Planned pings fall into ascending runs — a looking
// glass plans its queries in time order — and the engine merges the runs
// with the event heap through a second, small heap holding each run's
// earliest unsent ping. The merge is exact for any plan, including pings
// planned out of order or from a sink during Run.
//
// The simulator is single-threaded and deterministic: all randomness comes
// from stats.Source streams seeded by the caller, and events at equal
// timestamps fire in schedule order.
package netsim

import (
	"net/netip"
	"runtime"
	"slices"
	"time"
)

// Engine is the discrete-event core. The zero value is ready to use.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue eventQueue

	// plan holds the planned pings in planning order, as consecutive
	// runs ascending in (at, seq). A ping continues the run of the one
	// planned before it unless it is earlier, or that one was already
	// sent (tailSent). heads holds each run's earliest unsent ping, its
	// id the ping's plan index.
	plan     []plannedPing
	heads    eventQueue
	tailSent bool

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

// plannedPing is one planned echo request, sent when the merge of the
// plan's runs reaches it.
type plannedPing struct {
	at      time.Duration
	seq     uint64
	timeout time.Duration
	dst     netip.Addr
	node    int32
	tag     int32
}

// earlier is the total event order: time, then schedule sequence. (at,
// seq) pairs are unique, so the execution order of the heap merged with
// the plan's runs is fully determined — no layout leaks into results.
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

// ReservePings grows the plan's capacity for n more pings, so a caller
// that knows its whole schedule plans it into one exact-size array.
func (e *Engine) ReservePings(n int) { e.plan = slices.Grow(e.plan, n) }

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

// planPing adds one echo request to the plan, starting a new run unless
// it continues the last planned ping's.
func (e *Engine) planPing(at time.Duration, n *Node, dst netip.Addr, timeout time.Duration, tag int32) {
	if at < e.now {
		panic("netsim: scheduling into the past")
	}
	e.seq++
	if len(e.plan) == 0 || at < e.plan[len(e.plan)-1].at || e.tailSent {
		e.heads.push(event{at: at, seq: e.seq, id: int32(len(e.plan))})
	}
	e.tailSent = false
	e.plan = append(e.plan, plannedPing{at: at, seq: e.seq, timeout: timeout, dst: dst, node: n.id, tag: tag})
}

// yieldEvery is how many events Run executes between yields of the
// processor: about a millisecond of simulation at a few hundred
// nanoseconds an event.
const yieldEvery = 4096

// Run executes events until the heap and the plan are both drained.
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
	e.plan = nil
}

// step executes the earliest of the event heap's top and the earliest run
// head, and reports whether there was one.
func (e *Engine) step() bool {
	if len(e.heads) > 0 && (len(e.queue) == 0 || e.heads[0].before(e.queue[0])) {
		head := &e.heads[0]
		i := int(head.id)
		p := e.plan[i]
		// The ping planned next continues this run if it is not earlier:
		// had it started a run of its own, it would be earlier, or it
		// would have been planned after this one was sent. It replaces
		// this one as the run's head.
		if next := i + 1; next < len(e.plan) && e.plan[next].at >= p.at {
			head.at, head.seq, head.id = e.plan[next].at, e.plan[next].seq, int32(next)
			e.heads.down()
		} else {
			e.heads.pop()
		}
		if i == len(e.plan)-1 {
			e.tailSent = true
		}
		e.now = p.at
		e.nodes[p.node].ping(p.dst, p.timeout, p.tag)
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
