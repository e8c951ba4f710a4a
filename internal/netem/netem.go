// Package netem models the synthetic Internet the benchmark runs on:
// named hosts with geographic positions and IPv4 addresses, a
// propagation-delay model between them, per-host bandwidth caps, and a
// traceroute generator that produces the router-name hints the
// geolocation methodology consumes.
//
// The paper's testbed sits on a 1 Gb/s Ethernet at the University of
// Twente "in which the network is not a bottleneck"; completion times
// are instead governed by RTT to each provider's data centers and by
// per-connection server throughput. The emulator therefore needs only
// (i) a faithful RTT matrix derived from real geography and (ii)
// server-side rate caps — both are explicit, documented parameters.
package netem

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Host is one endpoint of the synthetic Internet: the test computer, a
// control/storage front-end, an edge node, a DNS resolver or a vantage
// point.
type Host struct {
	Name  string    // DNS-style name, unique within a Network
	Addr  string    // IPv4 literal, unique within a Network
	Coord geo.Coord // physical position

	// RateBps caps the per-connection application throughput this
	// host sustains (bits per second). Zero means unlimited; the
	// effective path rate is the minimum of both endpoints' caps.
	RateBps int64

	// ProcDelay is added to every request handled by this host,
	// modelling server-side processing (metadata commits, storage
	// back-end writes).
	ProcDelay time.Duration
}

// Network is the synthetic topology. It is not safe for concurrent use.
type Network struct {
	Clock *sim.Clock
	rng   *sim.RNG

	hostsByAddr map[string]*Host
	hostsByName map[string]*Host

	// Inflation stretches great-circle distances into routed-path
	// distances (see internal/geo).
	Inflation float64

	// JitterFraction adds uniform noise of ±(fraction/2)·RTT to each
	// RTT sample, modelling queueing variation. Zero disables jitter.
	JitterFraction float64

	// LossRate is the per-segment loss probability on every path
	// (0 disables loss). The transport reacts with Reno-style
	// window halving and pays retransmissions; lossy-path scenarios
	// set a few percent here. The analytic engine samples the next
	// loss position from the geometric run-length distribution this
	// rate implies (one RNG draw per loss event).
	LossRate float64
}

// New returns an empty network using the given clock and RNG.
func New(clock *sim.Clock, rng *sim.RNG) *Network {
	return &Network{
		Clock:       clock,
		rng:         rng,
		hostsByAddr: make(map[string]*Host),
		hostsByName: make(map[string]*Host),
		Inflation:   1.7,
	}
}

// AddHost registers a host. It panics on duplicate name or address —
// topology construction errors are programming errors.
func (n *Network) AddHost(h *Host) *Host {
	if _, dup := n.hostsByName[h.Name]; dup {
		panic(fmt.Sprintf("netem: duplicate host name %q", h.Name))
	}
	if _, dup := n.hostsByAddr[h.Addr]; dup {
		panic(fmt.Sprintf("netem: duplicate host addr %q", h.Addr))
	}
	n.hostsByName[h.Name] = h
	n.hostsByAddr[h.Addr] = h
	return h
}

// HostByAddr looks a host up by IPv4 address.
func (n *Network) HostByAddr(addr string) (*Host, bool) {
	h, ok := n.hostsByAddr[addr]
	return h, ok
}

// HostByName looks a host up by name.
func (n *Network) HostByName(name string) (*Host, bool) {
	h, ok := n.hostsByName[name]
	return h, ok
}

// NumHosts returns the number of registered hosts.
func (n *Network) NumHosts() int { return len(n.hostsByAddr) }

// RNG exposes the network's deterministic random source; the
// transport simulator draws loss events from it.
func (n *Network) RNG() *sim.RNG { return n.rng }

// BaseRTT returns the deterministic (jitter-free) round-trip time
// between two hosts.
func (n *Network) BaseRTT(a, b *Host) time.Duration {
	return geo.InflatedRTT(a.Coord, b.Coord, n.Inflation)
}

// SampleRTT returns one RTT sample between two hosts, with jitter.
func (n *Network) SampleRTT(a, b *Host) time.Duration {
	base := n.BaseRTT(a, b)
	if n.JitterFraction <= 0 {
		return base
	}
	spread := int64(float64(base) * n.JitterFraction)
	return time.Duration(n.rng.Jitter(int64(base), spread))
}

// PathRateBps returns the bottleneck application throughput between two
// hosts in bits per second: the minimum of both endpoints' caps, with
// zero meaning "no cap at this endpoint".
func (n *Network) PathRateBps(a, b *Host) int64 {
	ra, rb := a.RateBps, b.RateBps
	switch {
	case ra == 0:
		return rb
	case rb == 0:
		return ra
	case ra < rb:
		return ra
	default:
		return rb
	}
}

// Traceroute produces the forward router path from src to dst as seen
// by an active traceroute: a handful of hops whose reverse-DNS names
// may embed airport codes. The final transit hop always carries the
// code of the airport nearest the destination, reproducing the
// "closest well-known location of a router" signal the hybrid
// geolocator uses (Sect. 2.1).
func (n *Network) Traceroute(src, dst *Host) []geo.Hop {
	total := n.BaseRTT(src, dst)
	srcAir := geo.NearestAirport(src.Coord)
	dstAir := geo.NearestAirport(dst.Coord)
	mid := geo.Midpoint(src.Coord, dst.Coord)
	midAir := geo.NearestAirport(mid)

	hops := []geo.Hop{
		// Access router: opaque name, no location hint.
		{Name: fmt.Sprintf("gw1.isp-%s.sim", lower(srcAir.Code)), RTT: total / 10},
		{Name: fmt.Sprintf("ae-0-%s1.transit.sim", lower(srcAir.Code)), RTT: total / 5},
	}
	if midAir.Code != srcAir.Code && midAir.Code != dstAir.Code {
		hops = append(hops, geo.Hop{
			Name: fmt.Sprintf("xe-1-%s2.transit.sim", lower(midAir.Code)),
			RTT:  total / 2,
		})
	}
	hops = append(hops,
		geo.Hop{Name: fmt.Sprintf("be-3-%s4.transit.sim", lower(dstAir.Code)), RTT: total * 9 / 10},
		// The target itself often does not resolve.
		geo.Hop{Name: "", RTT: total},
	)
	return hops
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
