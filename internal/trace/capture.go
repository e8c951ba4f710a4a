package trace

import (
	"sort"
	"time"
)

// FlowInfo is the per-connection metadata the sniffer can legitimately
// know: the 5-tuple, when the connection was opened, and the DNS name
// the client resolved to reach the server. The real methodology builds
// the same name<->IP association by watching DNS traffic (Sect. 2.1);
// carrying it on the flow record is equivalent and keeps the analyzers
// simple.
type FlowInfo struct {
	ID         FlowID
	Key        FlowKey
	ServerName string
	OpenedAt   time.Time
}

// Capture is an in-memory packet trace: every connection the client
// under test opened, and every packet exchanged. The zero value is an
// empty, usable capture.
//
// Recording is append-only and cheap: in-order packets (the common
// case — a capture device timestamps in true time order) go straight
// to the sorted backing store, and out-of-order stragglers from
// connections simulating on independent timelines land in a small
// reorder buffer that is merged back in, stably, the first time the
// trace is read. Analyzers therefore always observe a time-sorted
// trace, exactly as with the previous insert-in-place scheme, without
// the O(n)-per-packet worst case.
type Capture struct {
	packets []Packet
	flows   []FlowInfo

	// pending is the reorder buffer: packets recorded out of order,
	// in arrival order, merged into packets by flush on first read.
	pending []Packet
	// pendingMax caches the latest timestamp inside pending so that
	// later in-order packets can keep taking the fast path without a
	// tie-breaking ambiguity against buffered stragglers.
	pendingMax time.Time

	// spans counts span records (for Window views, an upper bound
	// inherited from the parent): when zero, Window and the expansion
	// helpers skip their span scans entirely, keeping the span-free
	// trace — every lossy campaign, all control traffic — on the
	// original zero-copy binary-search fast path. minSpanStart and
	// maxSpanEnd bound where spans live on the timeline (conservative
	// for views), so Window also skips its boundary scans when no span
	// can possibly straddle the requested bound — the benchmark
	// window's [t0, FarFuture) case, where all spans start inside.
	spans                    int
	minSpanStart, maxSpanEnd time.Time
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// OpenFlow registers a new connection and returns its ID.
func (c *Capture) OpenFlow(key FlowKey, serverName string, at time.Time) FlowID {
	id := FlowID(len(c.flows))
	c.flows = append(c.flows, FlowInfo{ID: id, Key: key, ServerName: serverName, OpenedAt: at})
	return id
}

// Record adds a packet to the trace. Connections simulate on
// independent timelines, so records can arrive slightly out of order;
// the trace is re-established in time order (stably: equal timestamps
// keep arrival order) before any analyzer reads it. Recording is O(1).
func (c *Capture) Record(p Packet) {
	if p.IsSpan() {
		if c.spans == 0 || p.Time.Before(c.minSpanStart) {
			c.minSpanStart = p.Time
		}
		if end := p.End(); c.spans == 0 || end.After(c.maxSpanEnd) {
			c.maxSpanEnd = end
		}
		c.spans++
	}
	if len(c.pending) == 0 || p.Time.After(c.pendingMax) {
		// In order with respect to everything recorded so far: no
		// straggler in the buffer can tie or sort after it, so it can
		// go straight to the sorted store.
		if n := len(c.packets); n == 0 || !p.Time.Before(c.packets[n-1].Time) {
			c.packets = append(c.packets, p)
			return
		}
	}
	c.pending = append(c.pending, p)
	if p.Time.After(c.pendingMax) {
		c.pendingMax = p.Time
	}
}

// flush merges the reorder buffer into the sorted store. The merge is
// stable — packets already in the store sort before buffered packets
// with equal timestamps (which is arrival order, because an equal-time
// packet never takes the fast path past a buffered straggler), and
// buffered packets keep their arrival order among themselves.
func (c *Capture) flush() {
	if len(c.pending) == 0 {
		return
	}
	sort.SliceStable(c.pending, func(i, j int) bool {
		return c.pending[i].Time.Before(c.pending[j].Time)
	})
	// Merge into a fresh slice so previously returned Window views and
	// Packets slices keep observing their (valid) snapshot.
	merged := make([]Packet, 0, len(c.packets)+len(c.pending))
	i, j := 0, 0
	for i < len(c.packets) && j < len(c.pending) {
		if c.pending[j].Time.Before(c.packets[i].Time) {
			merged = append(merged, c.pending[j])
			j++
		} else {
			merged = append(merged, c.packets[i])
			i++
		}
	}
	merged = append(merged, c.packets[i:]...)
	merged = append(merged, c.pending[j:]...)
	c.packets = merged
	c.pending = c.pending[:0]
	c.pendingMax = time.Time{}
}

// Packets returns the raw records in time order. The returned slice
// is the capture's backing store; callers must not modify it.
func (c *Capture) Packets() []Packet {
	c.flush()
	return c.packets
}

// Flows returns metadata for every connection in the capture.
func (c *Capture) Flows() []FlowInfo { return c.flows }

// Flow returns the metadata for one connection.
func (c *Capture) Flow(id FlowID) FlowInfo { return c.flows[id] }

// NumFlows returns how many connections the capture saw.
func (c *Capture) NumFlows() int { return len(c.flows) }

// Len returns the number of trace records. Span records count once;
// ExpandedLen counts the per-round packets they stand for.
func (c *Capture) Len() int { return len(c.packets) + len(c.pending) }

// ExpandedLen returns the number of per-round packet records the trace
// stands for: plain records count 1, span records their slice count.
// This is the record count an equivalent pre-span capture would hold.
func (c *Capture) ExpandedLen() int {
	c.flush()
	if c.spans == 0 {
		return len(c.packets)
	}
	n := 0
	for i := range c.packets {
		n += c.packets[i].SliceCount()
	}
	return n
}

// SpanCount returns how many records are spans (aggregates of multiple
// transmission slices).
func (c *Capture) SpanCount() int {
	c.flush()
	if c.spans == 0 {
		return 0
	}
	n := 0
	for i := range c.packets {
		if c.packets[i].IsSpan() {
			n++
		}
	}
	return n
}

// ExpandedPackets returns the trace with every span record expanded
// into its constituent per-round records, in stable time order — the
// exact packet sequence the transport would have recorded one slice at
// a time. Span-free traces return the backing store itself (zero
// copy); callers must not modify the result either way. Per-packet
// analyzers that walk individual transmission rounds (burst and pause
// detection, throughput timelines) read the trace through this view.
func (c *Capture) ExpandedPackets() []Packet {
	c.flush()
	if c.spans == 0 {
		return c.packets
	}
	extra := 0
	for i := range c.packets {
		extra += c.packets[i].SliceCount() - 1
	}
	if extra == 0 {
		return c.packets
	}
	out := make([]Packet, 0, len(c.packets)+extra)
	for i := range c.packets {
		out = c.packets[i].appendSlices(out)
	}
	// Slices inherit their span's position in the record stream, so a
	// stable sort by time reproduces exactly the order a capture of
	// the individual slice records would have established.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Time.Before(out[j].Time)
	})
	return out
}

// FlowFilter selects a subset of connections, usually by server name
// (the paper separates control from storage traffic by DNS name).
type FlowFilter func(FlowInfo) bool

// AllFlows matches every connection.
func AllFlows(FlowInfo) bool { return true }

// flowSet materialises a filter into a lookup table for fast scans.
func (c *Capture) flowSet(f FlowFilter) []bool {
	set := make([]bool, len(c.flows))
	for i, fl := range c.flows {
		set[i] = f == nil || f(fl)
	}
	return set
}
