package netsim

import (
	"fmt"
	"time"
)

// Link is a point-to-point layer-2 link between exactly two interfaces,
// used for router backhauls (for example between a member's IXP-facing
// edge router and its remote core, in the proxy-ARP misdirection scenario)
// and for inter-router transit links.
type Link struct {
	Name  string
	Delay time.Duration // one-way propagation delay
	Noise *NoiseModel

	engine *Engine
	a, b   *Iface
}

// Connect creates a link between two interfaces.
func Connect(e *Engine, name string, a, b *Iface, delay time.Duration) *Link {
	if a.fabric != nil || a.link != nil {
		panic(fmt.Sprintf("netsim: interface %s already attached", a.Name))
	}
	if b.fabric != nil || b.link != nil {
		panic(fmt.Sprintf("netsim: interface %s already attached", b.Name))
	}
	l := &Link{Name: name, Delay: delay, engine: e, a: a, b: b}
	a.link = l
	b.link = l
	return l
}

// Peer returns the interface at the far end from iface.
func (l *Link) Peer(iface *Iface) *Iface {
	switch iface {
	case l.a:
		return l.b
	case l.b:
		return l.a
	default:
		return nil
	}
}

// send schedules delivery of f to the peer of src.
func (l *Link) send(src *Iface, f frame) {
	dst := l.Peer(src)
	if dst == nil {
		return
	}
	now := l.engine.now
	l.engine.schedule(now+l.Delay+l.Noise.Sample(now), event{kind: evDeliver, id: dst.id, frame: f})
}
