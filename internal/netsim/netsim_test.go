package netsim

import (
	"net/netip"
	"testing"
	"time"

	"remotepeering/internal/stats"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// buildLAN wires an LG host and a member router onto one fabric and returns
// the parts. memberAccess is the member's one-way access delay (the
// remote-peering pseudowire for remote members).
func buildLAN(t *testing.T, e *Engine, memberAccess time.Duration, memberOS OSProfile) (*Fabric, *Node, *Node) {
	t.Helper()
	f := NewFabric(e, "ixp-lan")
	f.SwitchLatency = 10 * time.Microsecond

	lg := NewNode(e, "lg", OSProfile{InitTTL: 64, ProcMean: 10 * time.Microsecond}, false, nil)
	lgIf := lg.AddIface("eth0", pfx("195.69.144.1/21"))
	f.Attach(lgIf, 5*time.Microsecond)

	member := NewNode(e, "member", memberOS, true, nil)
	mIf := member.AddIface("eth0", pfx("195.69.144.10/21"))
	f.Attach(mIf, memberAccess)
	return f, lg, member
}

// mute returns a node without routes: its pings never leave it, so each
// completes as a timeout exactly its timeout after it is sent — a probe
// of the engine's event order.
func mute(e *Engine) *Node { return NewNode(e, "mute", DefaultOS, false, nil) }

func TestEngineOrdering(t *testing.T) {
	var e Engine
	n := mute(&e)
	var order []int32
	e.OnPing(func(r PingResult) { order = append(order, r.Tag) })
	n.Ping(3*time.Second, ip("192.0.2.1"), 0, 3)
	n.Ping(1*time.Second, ip("192.0.2.1"), 0, 1)
	n.Ping(2*time.Second, ip("192.0.2.1"), 0, 2)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	var e Engine
	n := mute(&e)
	var order []int32
	e.OnPing(func(r PingResult) { order = append(order, r.Tag) })
	for i := int32(0); i < 10; i++ {
		n.Ping(time.Second, ip("192.0.2.1"), 0, i)
	}
	e.Run()
	if len(order) != 10 {
		t.Fatalf("ran %d pings, want 10", len(order))
	}
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("equal-time events reordered: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	n := mute(&e)
	e.OnPing(func(PingResult) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		n.Ping(time.Second, ip("192.0.2.1"), 0, 0)
	})
	n.Ping(2*time.Second, ip("192.0.2.1"), 0, 0)
	e.Run()
}

func TestPingOnLANDirectPeer(t *testing.T) {
	var e Engine
	_, lg, _ := buildLAN(t, &e, 5*time.Microsecond, OSProfile{InitTTL: 255, ProcMean: 0})

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	lg.Ping(0, ip("195.69.144.10"), time.Second, 0)
	e.Run()
	if got.TimedOut {
		t.Fatal("ping timed out on a directly connected LAN")
	}
	if got.TTL != 255 {
		t.Errorf("reply TTL = %d, want full 255 (no IP hops on layer 2)", got.TTL)
	}
	if got.From != ip("195.69.144.10") {
		t.Errorf("reply from %v", got.From)
	}
	// RTT: 2×(5+5 µs access) + 2×10 µs switch + proc ≈ tens of µs, far
	// below the 10 ms remoteness threshold.
	if got.RTT <= 0 || got.RTT > time.Millisecond {
		t.Errorf("direct-peer RTT = %v, want < 1 ms", got.RTT)
	}
}

func TestPingRemotePeerCrossesThreshold(t *testing.T) {
	// A remote peer's pseudowire access delay dominates the RTT; TTL is
	// still the full initial value because the pseudowire is layer 2.
	// This is the paper's central observable: high RTT, intact TTL.
	var e Engine
	_, lg, _ := buildLAN(t, &e, 9*time.Millisecond, OSProfile{InitTTL: 64, ProcMean: 0})

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	lg.Ping(0, ip("195.69.144.10"), time.Second, 0)
	e.Run()
	if got.TimedOut {
		t.Fatal("timed out")
	}
	if got.TTL != 64 {
		t.Errorf("TTL = %d, want 64: remote peering must be invisible on layer 3", got.TTL)
	}
	if got.RTT < 18*time.Millisecond {
		t.Errorf("RTT = %v, want ≥ 18 ms (two pseudowire traversals)", got.RTT)
	}
}

func TestPingTimeoutOnBlackhole(t *testing.T) {
	var e Engine
	_, lg, member := buildLAN(t, &e, 5*time.Microsecond, DefaultOS)
	member.Blackhole = true

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	lg.Ping(0, ip("195.69.144.10"), 500*time.Millisecond, 0)
	e.Run()
	if !got.TimedOut {
		t.Error("blackholed member must not answer")
	}
	if e.Now() < 500*time.Millisecond {
		t.Errorf("timeout fired early at %v", e.Now())
	}
}

func TestPingTimeoutOnUnresolvableAddress(t *testing.T) {
	var e Engine
	_, lg, _ := buildLAN(t, &e, 5*time.Microsecond, DefaultOS)

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	lg.Ping(0, ip("195.69.144.99"), 100*time.Millisecond, 0)
	e.Run()
	if !got.TimedOut {
		t.Error("nobody owns the address; the probe must time out")
	}
}

func TestProxyARPIndirectionDecrementsTTL(t *testing.T) {
	// The paper's "adherence to straight routes" hazard: the registry
	// lists an address that is not actually on the IXP LAN. A router on
	// the LAN proxy-answers resolution for it and forwards the probe over
	// a routed backhaul to the real host; request and reply each cross one
	// IP hop, so the reply reaches the LG with TTL = 64-1 = 63 — which is
	// exactly what the TTL-match filter discards.
	var e Engine
	f := NewFabric(&e, "ixp-lan")
	f.SwitchLatency = 10 * time.Microsecond

	lg := NewNode(&e, "lg", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	lgIf := lg.AddIface("eth0", pfx("195.69.144.1/21"))
	f.Attach(lgIf, 5*time.Microsecond)

	edge := NewNode(&e, "edge", DefaultOS, true, nil)
	edgeLAN := edge.AddIface("lan", pfx("195.69.144.50/21"))
	att := f.Attach(edgeLAN, 5*time.Microsecond)
	// The edge router proxy-answers for a "member" address that actually
	// lives behind it.
	att.Proxy = []netip.Prefix{pfx("195.69.144.77/32")}

	far := NewNode(&e, "far", OSProfile{InitTTL: 64, ProcMean: 0}, true, nil)
	farIf := far.AddIface("wan", pfx("10.0.0.2/30"))
	// The far host also owns the IXP-subnet address on a loopback-style
	// interface; it is not attached to any medium.
	far.AddIface("lo", pfx("195.69.144.77/32"))

	edgeWAN := edge.AddIface("wan", pfx("10.0.0.1/30"))
	Connect(&e, "backhaul", edgeWAN, farIf, 2*time.Millisecond)

	// Routing: edge knows 195.69.144.77 lives across the backhaul; far
	// routes everything back via the edge.
	edge.AddRoute(pfx("195.69.144.77/32"), ip("10.0.0.2"), edgeWAN)
	far.AddRoute(pfx("0.0.0.0/0"), ip("10.0.0.1"), farIf)

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	lg.Ping(0, ip("195.69.144.77"), time.Second, 0)
	e.Run()
	if got.TimedOut {
		t.Fatal("probe should be proxy-delivered and answered")
	}
	if got.TTL != 63 {
		t.Errorf("TTL = %d, want 63 (one IP hop on the reply path)", got.TTL)
	}
	if got.RTT < 4*time.Millisecond {
		t.Errorf("RTT = %v, want ≥ 4 ms (two backhaul traversals)", got.RTT)
	}
}

func TestTTLSwitchMidCampaign(t *testing.T) {
	// OS change mid-campaign: the same interface answers with 64 first and
	// 255 later; the TTL-switch filter in internal/core keys on this.
	var e Engine
	_, lg, member := buildLAN(t, &e, 5*time.Microsecond, OSProfile{InitTTL: 64, ProcMean: 0})

	var ttls []uint8
	e.OnPing(func(r PingResult) { ttls = append(ttls, r.TTL) })
	lg.Ping(0, ip("195.69.144.10"), time.Second, 0)
	member.SetInitTTLAt(time.Hour, 255)
	lg.Ping(2*time.Hour, ip("195.69.144.10"), time.Second, 0)
	e.Run()
	if len(ttls) != 2 || ttls[0] != 64 || ttls[1] != 255 {
		t.Errorf("ttls = %v, want [64 255]", ttls)
	}
	if member.InitTTL() != 255 {
		t.Errorf("InitTTL = %d", member.InitTTL())
	}
}

func TestDropProbLosesSomePings(t *testing.T) {
	var e Engine
	f := NewFabric(&e, "lan")
	lg := NewNode(&e, "lg", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	lgIf := lg.AddIface("eth0", pfx("195.69.144.1/21"))
	f.Attach(lgIf, time.Microsecond)

	member := NewNode(&e, "member", OSProfile{InitTTL: 64, ProcMean: 0}, false, stats.NewSource(7))
	member.DropProb = 0.5
	mIf := member.AddIface("eth0", pfx("195.69.144.10/21"))
	f.Attach(mIf, time.Microsecond)

	const n = 200
	timeouts := 0
	e.OnPing(func(r PingResult) {
		if r.TimedOut {
			timeouts++
		}
	})
	for i := 0; i < n; i++ {
		lg.Ping(time.Duration(i)*time.Minute, ip("195.69.144.10"), 10*time.Second, 0)
	}
	e.Run()
	if timeouts < n/4 || timeouts > 3*n/4 {
		t.Errorf("timeouts = %d of %d, want ≈ half", timeouts, n)
	}
}

func TestMultiLocationFabricDelay(t *testing.T) {
	// An IXP with two sites: an LG at site 0 pinging a member at site 1
	// sees the inter-site delay both ways; a member at site 0 does not.
	var e Engine
	f := NewFabric(&e, "metro-ixp")
	f.SetInterLocation(0, 1, 3*time.Millisecond)

	lg := NewNode(&e, "lg", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	lgIf := lg.AddIface("eth0", pfx("195.69.144.1/21"))
	f.Attach(lgIf, time.Microsecond) // location 0 by default

	near := NewNode(&e, "near", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	nearIf := near.AddIface("eth0", pfx("195.69.144.10/21"))
	f.Attach(nearIf, time.Microsecond)

	farNode := NewNode(&e, "far", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	farIf := farNode.AddIface("eth0", pfx("195.69.144.11/21"))
	fa := f.Attach(farIf, time.Microsecond)
	fa.Location = 1

	rtts := map[int32]time.Duration{}
	e.OnPing(func(r PingResult) { rtts[r.Tag] = r.RTT })
	lg.Ping(0, ip("195.69.144.10"), time.Second, 0)
	lg.Ping(time.Minute, ip("195.69.144.11"), time.Second, 1)
	e.Run()
	nearRTT, farRTT := rtts[0], rtts[1]
	if nearRTT > time.Millisecond {
		t.Errorf("same-site RTT = %v", nearRTT)
	}
	if farRTT < 6*time.Millisecond {
		t.Errorf("cross-site RTT = %v, want ≥ 6 ms", farRTT)
	}
}

func TestFabricNoiseRaisesButMinRTTSurvives(t *testing.T) {
	// With diurnal congestion, individual samples vary but the minimum
	// over a day of probing approaches the propagation floor — the
	// rationale for the paper's repeated measurements.
	var e Engine
	f := NewFabric(&e, "lan")
	f.Noise = NewNoiseModel(stats.NewSource(3), 100*time.Microsecond, 4*time.Millisecond)

	lg := NewNode(&e, "lg", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	lgIf := lg.AddIface("eth0", pfx("195.69.144.1/21"))
	f.Attach(lgIf, time.Microsecond)
	member := NewNode(&e, "m", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	mIf := member.AddIface("eth0", pfx("195.69.144.10/21"))
	f.Attach(mIf, time.Microsecond)

	var rtts []time.Duration
	e.OnPing(func(r PingResult) {
		if !r.TimedOut {
			rtts = append(rtts, r.RTT)
		}
	})
	for h := 0; h < 24; h++ {
		lg.Ping(time.Duration(h)*time.Hour, ip("195.69.144.10"), 10*time.Second, 0)
	}
	e.Run()
	if len(rtts) != 24 {
		t.Fatalf("got %d replies", len(rtts))
	}
	min, max := rtts[0], rtts[0]
	for _, r := range rtts {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if min > 2*time.Millisecond {
		t.Errorf("min RTT = %v, want near the propagation floor", min)
	}
	if max < 2*min {
		t.Errorf("expected visible congestion spread, min=%v max=%v", min, max)
	}
}

func TestNoNoiseModelIsZero(t *testing.T) {
	var n *NoiseModel
	if d := n.Sample(0); d != 0 {
		t.Errorf("nil noise sample = %v", d)
	}
}

func TestDiurnalExcessShape(t *testing.T) {
	amp := 10 * time.Millisecond
	busy := diurnalExcess(20*time.Hour, 20, amp)                   // Monday busy hour
	quiet := diurnalExcess(8*time.Hour, 20, amp)                   // Monday 08:00
	weekend := diurnalExcess(5*24*time.Hour+20*time.Hour, 20, amp) // Saturday busy hour
	if busy != amp {
		t.Errorf("busy-hour excess = %v, want %v", busy, amp)
	}
	if quiet != 0 {
		t.Errorf("quiet-hour excess = %v, want 0 (clipped)", quiet)
	}
	if weekend >= busy {
		t.Errorf("weekend %v should be below weekday %v", weekend, busy)
	}
}

func TestLinkPeerAndDoubleAttachPanics(t *testing.T) {
	var e Engine
	n1 := NewNode(&e, "a", DefaultOS, true, nil)
	n2 := NewNode(&e, "b", DefaultOS, true, nil)
	i1 := n1.AddIface("e0", pfx("10.0.0.1/30"))
	i2 := n2.AddIface("e0", pfx("10.0.0.2/30"))
	l := Connect(&e, "l", i1, i2, time.Millisecond)
	if l.Peer(i1) != i2 || l.Peer(i2) != i1 {
		t.Error("Peer mismatch")
	}
	other := n1.AddIface("e1", pfx("10.0.1.1/30"))
	if l.Peer(other) != nil {
		t.Error("Peer of unrelated iface should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("double attach should panic")
		}
	}()
	f := NewFabric(&e, "f")
	f.Attach(i1, 0)
}

func TestRouterForwardingAcrossLinks(t *testing.T) {
	// host A -- router R -- host B over two p2p links; ping A→B sees two
	// TTL decrements total (request one at R; reply one at R).
	var e Engine
	a := NewNode(&e, "a", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	r := NewNode(&e, "r", DefaultOS, true, nil)
	b := NewNode(&e, "b", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)

	aIf := a.AddIface("e0", pfx("10.0.1.1/30"))
	rIfA := r.AddIface("e0", pfx("10.0.1.2/30"))
	rIfB := r.AddIface("e1", pfx("10.0.2.1/30"))
	bIf := b.AddIface("e0", pfx("10.0.2.2/30"))

	Connect(&e, "a-r", aIf, rIfA, time.Millisecond)
	Connect(&e, "r-b", rIfB, bIf, time.Millisecond)

	a.AddRoute(pfx("0.0.0.0/0"), ip("10.0.1.2"), aIf)
	b.AddRoute(pfx("0.0.0.0/0"), ip("10.0.2.1"), bIf)

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	a.Ping(0, ip("10.0.2.2"), time.Second, 0)
	e.Run()
	if got.TimedOut {
		t.Fatal("routed ping timed out")
	}
	if got.TTL != 63 {
		t.Errorf("TTL = %d, want 63", got.TTL)
	}
	if got.RTT < 4*time.Millisecond {
		t.Errorf("RTT = %v, want ≥ 4 ms", got.RTT)
	}
}

func TestTTLExpiresInForwarding(t *testing.T) {
	// A packet with TTL 1 forwarded by a router must be dropped.
	var e Engine
	a := NewNode(&e, "a", OSProfile{InitTTL: 1, ProcMean: 0}, false, nil)
	r := NewNode(&e, "r", DefaultOS, true, nil)
	b := NewNode(&e, "b", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)

	aIf := a.AddIface("e0", pfx("10.0.1.1/30"))
	rIfA := r.AddIface("e0", pfx("10.0.1.2/30"))
	rIfB := r.AddIface("e1", pfx("10.0.2.1/30"))
	bIf := b.AddIface("e0", pfx("10.0.2.2/30"))
	Connect(&e, "a-r", aIf, rIfA, time.Millisecond)
	Connect(&e, "r-b", rIfB, bIf, time.Millisecond)
	a.AddRoute(pfx("0.0.0.0/0"), ip("10.0.1.2"), aIf)
	b.AddRoute(pfx("0.0.0.0/0"), ip("10.0.2.1"), bIf)

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	a.Ping(0, ip("10.0.2.2"), 100*time.Millisecond, 0)
	e.Run()
	if !got.TimedOut {
		t.Error("TTL-1 packet should die at the router")
	}
}

func TestHostDoesNotForward(t *testing.T) {
	// A non-forwarding node must not relay transit packets.
	var e Engine
	a := NewNode(&e, "a", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)
	h := NewNode(&e, "h", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil) // host, not router
	b := NewNode(&e, "b", OSProfile{InitTTL: 64, ProcMean: 0}, false, nil)

	aIf := a.AddIface("e0", pfx("10.0.1.1/30"))
	hIfA := h.AddIface("e0", pfx("10.0.1.2/30"))
	hIfB := h.AddIface("e1", pfx("10.0.2.1/30"))
	bIf := b.AddIface("e0", pfx("10.0.2.2/30"))
	Connect(&e, "a-h", aIf, hIfA, time.Millisecond)
	Connect(&e, "h-b", hIfB, bIf, time.Millisecond)
	a.AddRoute(pfx("0.0.0.0/0"), ip("10.0.1.2"), aIf)
	b.AddRoute(pfx("0.0.0.0/0"), ip("10.0.2.1"), bIf)

	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	a.Ping(0, ip("10.0.2.2"), 100*time.Millisecond, 0)
	e.Run()
	if !got.TimedOut {
		t.Error("host must not forward transit traffic")
	}
}

func TestLongestPrefixMatchPrefersSpecific(t *testing.T) {
	var e Engine
	n := NewNode(&e, "r", DefaultOS, true, nil)
	wide := n.AddIface("wide", pfx("10.0.0.1/8"))
	narrow := n.AddIface("narrow", pfx("10.1.0.1/16"))
	out, nh, ok := n.lookupRoute(ip("10.1.2.3"))
	if !ok || out != narrow || nh != ip("10.1.2.3") {
		t.Errorf("lookup = %v %v %v, want narrow iface", out, nh, ok)
	}
	out, _, ok = n.lookupRoute(ip("10.2.0.1"))
	if !ok || out != wide {
		t.Errorf("lookup = %v, want wide iface", out)
	}
	// Static more-specific route beats connected less-specific.
	peer := NewNode(&e, "p", DefaultOS, true, nil)
	peerIf := peer.AddIface("e0", pfx("10.9.0.2/30"))
	_ = peerIf
	n.AddRoute(pfx("10.2.3.0/24"), ip("10.0.0.9"), wide)
	out, nh, ok = n.lookupRoute(ip("10.2.3.4"))
	if !ok || out != wide || nh != ip("10.0.0.9") {
		t.Errorf("static route lookup = %v %v %v", out, nh, ok)
	}
}

// TestStaticRoutesLongestMatchAnyOrder pins static-route selection
// without any ordering of the table: the longest matching prefix wins
// whatever order routes were installed in, and among routes of one
// length the first installed wins.
func TestStaticRoutesLongestMatchAnyOrder(t *testing.T) {
	var e Engine
	n := NewNode(&e, "r", DefaultOS, true, nil)
	a := n.AddIface("a", pfx("192.0.2.1/30"))
	b := n.AddIface("b", pfx("192.0.2.5/30"))
	n.AddRoute(pfx("0.0.0.0/0"), ip("192.0.2.2"), a)
	n.AddRoute(pfx("10.0.0.0/8"), ip("192.0.2.2"), a)
	n.AddRoute(pfx("10.1.0.0/16"), ip("192.0.2.6"), b)
	n.AddRoute(pfx("10.1.0.0/16"), ip("192.0.2.2"), a)
	n.AddRoute(pfx("10.0.0.0/12"), ip("192.0.2.6"), b)
	for _, tc := range []struct {
		dst string
		out *Iface
		nh  string
	}{
		{"10.1.2.3", b, "192.0.2.6"},     // the /16 installed first
		{"10.2.0.1", b, "192.0.2.6"},     // the /12 installed after the /8
		{"10.200.0.1", a, "192.0.2.2"},   // the /8
		{"198.51.100.1", a, "192.0.2.2"}, // the default route
	} {
		out, nh, ok := n.lookupRoute(ip(tc.dst))
		if !ok || out != tc.out || nh != ip(tc.nh) {
			name := "no interface"
			if out != nil {
				name = out.Name
			}
			t.Errorf("lookup %s = %s via %v (ok %t), want %s via %s", tc.dst, name, nh, ok, tc.out.Name, tc.nh)
		}
	}
}

func TestNoRouteDropsSilently(t *testing.T) {
	var e Engine
	n := NewNode(&e, "n", DefaultOS, false, nil)
	n.AddIface("e0", pfx("10.0.0.1/24"))
	done := false
	e.OnPing(func(r PingResult) {
		done = true
		if !r.TimedOut {
			t.Error("unroutable ping must time out")
		}
	})
	n.Ping(0, ip("192.168.1.1"), 50*time.Millisecond, 0)
	e.Run()
	if !done {
		t.Error("callback never fired")
	}
}

func TestPingResultSentAt(t *testing.T) {
	var e Engine
	_, lg, _ := buildLAN(t, &e, time.Microsecond, OSProfile{InitTTL: 64, ProcMean: 0})
	var got PingResult
	e.OnPing(func(r PingResult) { got = r })
	lg.Ping(42*time.Minute, ip("195.69.144.10"), time.Second, 0)
	e.Run()
	if got.SentAt != 42*time.Minute {
		t.Errorf("SentAt = %v", got.SentAt)
	}
}

// TestPingCompletesOnceWhenProbesOverflow pins Ping's exactly-once
// contract past the 1<<16 probes one node can hold outstanding: a probe
// the full table evicts times out at once instead of going missing.
func TestPingCompletesOnceWhenProbesOverflow(t *testing.T) {
	var e Engine
	n := mute(&e)
	const total = 70_000
	done := make([]int, total)
	var timedOut, early int
	e.OnPing(func(r PingResult) {
		done[r.Tag]++
		if r.TimedOut {
			timedOut++
		}
		if e.Now() < r.SentAt+time.Hour {
			early++
		}
		if want := time.Duration(r.Tag) * time.Millisecond; r.SentAt != want {
			t.Errorf("ping %d: SentAt %v, want %v", r.Tag, r.SentAt, want)
		}
	})
	for i := 0; i < total; i++ {
		n.Ping(time.Duration(i)*time.Millisecond, ip("192.0.2.1"), time.Hour, int32(i))
	}
	e.Run()
	for tag, c := range done {
		if c != 1 {
			t.Fatalf("ping %d completed %d times, want exactly once", tag, c)
		}
	}
	if timedOut != total {
		t.Errorf("%d of %d pings timed out; an unanswered ping must", timedOut, total)
	}
	if want := total - 1<<16; early != want {
		t.Errorf("%d pings timed out before their hour, want the %d evicted", early, want)
	}
}

// TestTracerouteHopTimesOutWhenEvicted pins that a traceroute probe the
// full table evicts records a timed-out hop, so the trace still finishes.
func TestTracerouteHopTimesOutWhenEvicted(t *testing.T) {
	var e Engine
	n := mute(&e)
	var got []TracerouteResult
	var at time.Duration
	e.OnTraceroute(func(r TracerouteResult) { got, at = append(got, r), e.Now() })
	n.Traceroute(0, ip("192.0.2.1"), 1, time.Hour, 7)
	// The trace's probe holds serial 1; ping serial 1+1<<16 takes its slot.
	for i := 1; i <= 1<<16; i++ {
		n.Ping(time.Duration(i)*time.Millisecond, ip("192.0.2.1"), time.Hour, int32(i))
	}
	e.Run()
	if len(got) != 1 {
		t.Fatalf("traceroute completed %d times, want once", len(got))
	}
	r := got[0]
	if r.Tag != 7 || r.Reached || len(r.Hops) != 1 || !r.Hops[0].TimedOut || r.Hops[0].TTL != 1 {
		t.Errorf("traceroute result %+v, want one timed-out hop at TTL 1", r)
	}
	if want := time.Duration(1<<16) * time.Millisecond; at != want {
		t.Errorf("traceroute finished at %v, want %v when its probe was evicted", at, want)
	}
}
