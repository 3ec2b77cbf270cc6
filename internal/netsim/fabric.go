package netsim

import (
	"fmt"
	"net/netip"
	"time"
)

// Fabric models a layer-2 switching domain: an IXP peering LAN. Frames are
// delivered between attachments with a delay composed of each side's access
// delay (the physical tail from the member's equipment to the switch — for
// a directly peering member this is microseconds; for a remotely peering
// member it is the remote-peering provider's pseudowire, i.e. a geographic
// delay), the inter-location delay when the fabric spans multiple sites,
// the switching latency, and stochastic noise.
//
// The fabric performs no TTL manipulation: it is pure layer 2, which is
// precisely why the paper's layer-3 methods cannot see remote-peering
// providers and why ping TTLs survive intact across it.
type Fabric struct {
	Name          string
	SwitchLatency time.Duration
	Noise         *NoiseModel

	engine      *Engine
	attachments []*Attachment
	// interLoc[{a, b}] is the one-way delay between fabric locations a and b.
	interLoc map[[2]int]time.Duration

	// byIP indexes attachments by owned address for resolve; ipIndexed
	// counts how many attachments have been folded in, so the index
	// lazily catches up after Attach calls. Interface address lists are
	// immutable once created (AddIface is the only writer), which is what
	// makes the index safe. First-wins on duplicate addresses, matching
	// the linear scan it replaces.
	byIP      map[netip.Addr]*Attachment
	ipIndexed int
}

// Attachment binds an interface to a fabric.
type Attachment struct {
	Iface *Iface
	// Access is the one-way delay between the member equipment and the
	// fabric switch at Location. For a remote peer this is the pseudowire
	// delay contributed by the remote-peering provider.
	Access time.Duration
	// Location indexes the fabric site the attachment lands on (0 for
	// single-location fabrics).
	Location int
	// ExtraNoise, when non-nil, adds attachment-specific queueing on top
	// of the fabric noise; used to model persistently congested ports
	// (the RTT-consistent filter's reason to exist). It is charged on
	// frames delivered *to* the attachment — the congestion lives in the
	// switch's egress queue toward the member port — so a ping pays it
	// once per round trip, not twice.
	ExtraNoise *NoiseModel
	// Proxy lists prefixes this attachment answers resolution for even
	// though no local interface owns them — the simulator's equivalent of
	// proxy ARP. This reproduces the paper's "targeted IP addresses ...
	// actually not in the IXP subnet" hazard: probes to such addresses get
	// delivered here and then routed onward at layer 3, decrementing TTL.
	Proxy []netip.Prefix
}

// NewFabric creates a fabric bound to an engine.
func NewFabric(e *Engine, name string) *Fabric {
	return &Fabric{
		Name:     name,
		engine:   e,
		interLoc: make(map[[2]int]time.Duration),
	}
}

// SetInterLocation records the one-way delay between two fabric locations
// (symmetric).
func (f *Fabric) SetInterLocation(a, b int, d time.Duration) {
	f.interLoc[[2]int{a, b}] = d
	f.interLoc[[2]int{b, a}] = d
}

// interLocation returns the one-way delay between locations a and b.
func (f *Fabric) interLocation(a, b int) time.Duration {
	if a == b {
		return 0
	}
	return f.interLoc[[2]int{a, b}]
}

// Attach connects iface to the fabric and returns the attachment for
// further configuration. An interface can be attached to one fabric only.
func (f *Fabric) Attach(iface *Iface, access time.Duration) *Attachment {
	if iface.fabric != nil || iface.link != nil {
		panic(fmt.Sprintf("netsim: interface %s already attached", iface.Name))
	}
	a := &Attachment{Iface: iface, Access: access}
	f.attachments = append(f.attachments, a)
	iface.fabric = f
	iface.attachment = a
	return a
}

// resolve performs the fabric's address resolution: it returns the
// attachment owning ip, falling back to proxy claims, or nil; an
// unresolvable address means the probe is silently lost, like an
// unanswered ARP.
//
// Resolution is a map lookup over an incrementally maintained index —
// the linear owner scan it replaces was the hottest line of the campaign
// simulation at IXPs with hundreds of member ports.
func (f *Fabric) resolve(ip netip.Addr) *Attachment {
	if f.ipIndexed < len(f.attachments) {
		if f.byIP == nil {
			f.byIP = make(map[netip.Addr]*Attachment, len(f.attachments)*2)
		}
		for _, a := range f.attachments[f.ipIndexed:] {
			for _, p := range a.Iface.addrs {
				if _, dup := f.byIP[p.Addr()]; !dup {
					f.byIP[p.Addr()] = a
				}
			}
		}
		f.ipIndexed = len(f.attachments)
	}
	if a, ok := f.byIP[ip]; ok {
		return a
	}
	for _, a := range f.attachments {
		for _, p := range a.Proxy {
			if p.Contains(ip) {
				return a
			}
		}
	}
	return nil
}

// deliver schedules the arrival of f at dst, sent from src.
func (f *Fabric) deliver(src, dst *Attachment, fr frame) {
	now := f.engine.now
	delay := src.Access + dst.Access + f.SwitchLatency +
		f.interLocation(src.Location, dst.Location) +
		f.Noise.Sample(now) +
		dst.ExtraNoise.Sample(now)
	f.engine.schedule(now+delay, event{kind: evDeliver, id: dst.Iface.id, frame: fr})
}
