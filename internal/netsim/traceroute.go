package netsim

import (
	"net/netip"
	"time"
)

// Hop is one step of a traceroute: the router (or destination) that
// answered the probe for a given TTL.
type Hop struct {
	TTL      int
	From     netip.Addr
	RTT      time.Duration
	Reached  bool // true when the hop is the destination's echo reply
	TimedOut bool
}

// TracerouteResult is the completed path discovery.
type TracerouteResult struct {
	Target netip.Addr
	Hops   []Hop
	// Reached reports whether the destination answered.
	Reached bool
	// Tag is the caller's label from Traceroute.
	Tag int32
}

// HopCount returns the number of responding IP hops to the destination, or
// -1 when it was never reached. A count of 1 means the target is on-link —
// which is what every IXP member looks like from an LG server, remote or
// not: the remote-peering provider's layer-2 pseudowire is invisible to
// layer-3 path discovery. This is the paper's core observation, executable.
func (r TracerouteResult) HopCount() int {
	if !r.Reached {
		return -1
	}
	return len(r.Hops)
}

// traceState is one traceroute in progress; ttl is the hop its
// outstanding probe is for.
type traceState struct {
	node     *Node
	id       int32
	maxHops  int
	perHop   time.Duration
	ttl      int
	finished bool
	res      TracerouteResult
}

// Traceroute plans a discovery of the IP path from the node to dst at
// simulation time at: echo requests with increasing TTLs whose
// time-exceeded answers name the routers on the way, like the traceroute
// tool the paper contrasts its methodology against. It completes into the
// engine's traceroute sink once, with the full result; tag is handed back
// in it.
func (n *Node) Traceroute(at time.Duration, dst netip.Addr, maxHops int, perHopTimeout time.Duration, tag int32) {
	if maxHops <= 0 {
		maxHops = 30
	}
	e := n.engine
	st := &traceState{
		node:    n,
		id:      int32(len(e.traces)),
		maxHops: maxHops,
		perHop:  perHopTimeout,
		res:     TracerouteResult{Target: dst, Tag: tag},
	}
	e.traces = append(e.traces, st)
	e.schedule(at, event{kind: evTrace, id: st.id})
}

// step launches the probe for the next TTL, or finishes the trace past
// maxHops.
func (st *traceState) step() {
	if st.finished {
		return
	}
	st.ttl++
	if st.ttl > st.maxHops {
		st.finish(false)
		return
	}
	n := st.node
	serial := n.sendProbe(st.res.Target, uint16(st.ttl), uint8(st.ttl), probe{target: st.res.Target, trace: st.id})
	n.engine.schedule(n.engine.now+st.perHop, event{kind: evExpire, id: n.id, serial: serial})
}

// record appends the outstanding probe's hop, then finishes the trace if
// the destination answered and probes the next TTL otherwise.
func (st *traceState) record(h Hop) {
	if st.finished {
		return
	}
	h.TTL = st.ttl
	st.res.Hops = append(st.res.Hops, h)
	if h.Reached {
		st.finish(true)
		return
	}
	st.step()
}

func (st *traceState) finish(reached bool) {
	st.finished = true
	st.res.Reached = reached
	if sink := st.node.engine.onTrace; sink != nil {
		sink(st.res)
	}
}
