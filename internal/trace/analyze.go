package trace

import (
	"sort"
	"time"
)

// This file holds the trace analyzers behind every measurement in the
// paper:
//
//   - byte accounting            -> protocol overhead (Fig. 6c, Fig. 4, Fig. 5)
//   - first/last payload packet  -> completion time (Fig. 6b)
//   - SYN timeline               -> connection-per-file detection (Fig. 3)
//   - burst detection            -> sequential-upload detection (Sect. 4.2)
//   - pause detection            -> chunk-size inference (Sect. 4.1)
//   - cumulative byte timeline   -> idle/background traffic (Fig. 1)
//
// The scalar metrics all derive from one fold: fold.add is the only
// code that adds a record's bytes, payload bracket and SYNs to
// Analysis state. Both sinks run it — Capture.Analyze over the
// buffered records, StreamWindow at record time over each record
// clipped to its window — so Capture.Window(from, to).Analyze(f) and
// the StreamWindow over [from, to) agree by construction. The
// measurement engine reads every Sect. 5 number off one Analysis per
// (window, filter) pair.

// Analysis is every scalar trace metric over one flow selection.
type Analysis struct {
	// Packets counts the selected trace records (span records count
	// their slices).
	Packets int

	// TotalWire is on-the-wire bytes in both directions, including
	// pure-ACK accounting.
	TotalWire int64
	// WireUp/WireDown are directional wire bytes; ACK bytes carried
	// on a data record count towards the opposite direction (the
	// receiver emits them). TotalWire == WireUp + WireDown.
	WireUp, WireDown int64
	// PayloadUp/PayloadDown are directional application payload bytes.
	PayloadUp, PayloadDown int64

	// FirstPayload/LastPayload bracket the payload-carrying packets;
	// valid only when HasPayload is true. FirstPayload is the paper's
	// synchronization-start event ("the first storage flow"), and the
	// paper measures completion time between these two instants,
	// tear-down excluded.
	FirstPayload, LastPayload time.Time
	HasPayload                bool

	// SYNTimes are the client-initiated SYN instants in stable time
	// order; Connections == len(SYNTimes) (Fig. 3).
	SYNTimes    []time.Time
	Connections int
}

// fold accumulates trace records per flow, so flow filters apply at
// read time and one fold answers every selection. Every output but
// the SYN timeline is order-independent; SYNs are re-established in
// stable time order when read, the discipline Capture.flush applies
// to the whole trace. Memory is O(flows): about a hundred bytes per
// flow plus one event per connection.
type fold struct {
	perFlow []flowAcc
	syns    []synEvent
}

// flowAcc is one flow's share of every commutative Analysis metric.
type flowAcc struct {
	packets                int
	totalWire              int64
	wireUp, wireDown       int64
	payloadUp, payloadDown int64

	firstPayload, lastPayload time.Time
	hasPayload                bool
}

// synEvent is one client-initiated SYN, kept in arrival order.
type synEvent struct {
	time time.Time
	flow FlowID
}

// add folds one record. A span folds in O(1): its aggregate fields
// are totals over its slices, and every slice of a data span carries
// payload, so its payload bracket is [p.Time, p.End()].
func (fd *fold) add(p *Packet) {
	for int(p.Flow) >= len(fd.perFlow) {
		fd.perFlow = append(fd.perFlow, flowAcc{})
	}
	a := &fd.perFlow[p.Flow]
	a.packets += p.SliceCount()
	a.totalWire += p.Wire + p.AckWire
	if p.Dir == Upstream {
		a.wireUp += p.Wire
		a.wireDown += p.AckWire
		a.payloadUp += p.Payload
		if p.Flags.SYN && !p.Flags.ACK {
			fd.syns = append(fd.syns, synEvent{time: p.Time, flow: p.Flow})
		}
	} else {
		a.wireDown += p.Wire
		a.wireUp += p.AckWire
		a.payloadDown += p.Payload
	}
	if p.Payload > 0 {
		// Records arrive slightly out of order, and a span's End can
		// lie beyond the start of records sorted after it, so the
		// bracket is a min/max fold.
		first, last := p.Time, p.End()
		if !a.hasPayload {
			a.firstPayload, a.lastPayload, a.hasPayload = first, last, true
		} else {
			if first.Before(a.firstPayload) {
				a.firstPayload = first
			}
			if last.After(a.lastPayload) {
				a.lastPayload = last
			}
		}
	}
}

// analysis merges the accumulators of the flows f selects (nil
// selects all) into one Analysis.
func (fd *fold) analysis(flows []FlowInfo, f FlowFilter) Analysis {
	var a Analysis
	for id := range fd.perFlow {
		if f != nil && !f(flows[id]) {
			continue
		}
		acc := &fd.perFlow[id]
		a.Packets += acc.packets
		a.TotalWire += acc.totalWire
		a.WireUp += acc.wireUp
		a.WireDown += acc.wireDown
		a.PayloadUp += acc.payloadUp
		a.PayloadDown += acc.payloadDown
		if acc.hasPayload {
			if !a.HasPayload {
				a.FirstPayload, a.LastPayload, a.HasPayload = acc.firstPayload, acc.lastPayload, true
			} else {
				if acc.firstPayload.Before(a.FirstPayload) {
					a.FirstPayload = acc.firstPayload
				}
				if acc.lastPayload.After(a.LastPayload) {
					a.LastPayload = acc.lastPayload
				}
			}
		}
	}
	for _, e := range fd.syns {
		if f == nil || f(flows[e.flow]) {
			a.SYNTimes = append(a.SYNTimes, e.time)
		}
	}
	// Stable: equal timestamps keep arrival order.
	sort.SliceStable(a.SYNTimes, func(i, j int) bool {
		return a.SYNTimes[i].Before(a.SYNTimes[j])
	})
	a.Connections = len(a.SYNTimes)
	return a
}

// flowBytes returns total wire bytes per flow, indexed by FlowID,
// for a trace of n flows.
func (fd *fold) flowBytes(n int) []int64 {
	out := make([]int64, n)
	for id := range fd.perFlow {
		out[id] = fd.perFlow[id].totalWire
	}
	return out
}

// flowsWithTraffic reports which of n flows carry at least one record.
func (fd *fold) flowsWithTraffic(n int) []bool {
	out := make([]bool, n)
	for id := range fd.perFlow {
		out[id] = fd.perFlow[id].packets > 0
	}
	return out
}

// scan folds every record of the time-sorted trace.
func (c *Capture) scan() *fold {
	c.flush()
	fd := &fold{}
	for i := range c.packets {
		fd.add(&c.packets[i])
	}
	return fd
}

// Analyze computes every scalar metric over the selected flows in one
// scan of the trace. It is the workhorse behind MeasureWindow.
func (c *Capture) Analyze(f FlowFilter) Analysis {
	return c.scan().analysis(c.flows, f)
}

// FlowBytes returns total wire bytes per flow, indexed by FlowID. The
// paper uses per-flow sizes to tell Wuala's storage flows from its
// control flows, since Wuala does not split them by server name.
func (c *Capture) FlowBytes() []int64 {
	return c.scan().flowBytes(len(c.flows))
}

// FlowsWithTraffic reports which flows carry at least one packet in
// this capture, indexed by FlowID. On a Window sub-capture the flow
// metadata still spans the whole session, so this is how analyzers
// find the connections active within the window.
func (c *Capture) FlowsWithTraffic() []bool {
	return c.scan().flowsWithTraffic(len(c.flows))
}

// TimelinePoint is one step of a cumulative byte timeline.
type TimelinePoint struct {
	Time  time.Time
	Bytes int64 // cumulative wire bytes up to and including Time
}

// CumulativeBytes returns the cumulative wire-byte timeline across the
// selected flows (both directions), one point per packet (spans
// expanded, so every transmission round is a step). Fig. 1 plots this
// for control traffic while the client is idle.
func (c *Capture) CumulativeBytes(f FlowFilter) []TimelinePoint {
	set := c.flowSet(f)
	var out []TimelinePoint
	var total int64
	for _, p := range c.ExpandedPackets() {
		if !set[p.Flow] {
			continue
		}
		total += p.Wire + p.AckWire
		out = append(out, TimelinePoint{Time: p.Time, Bytes: total})
	}
	return out
}

// Burst is a run of upstream payload packets not separated by a gap
// larger than the detection threshold. The paper counts bursts to
// detect clients that upload files sequentially, waiting for an
// application-layer acknowledgment between files (SkyDrive, Wuala).
type Burst struct {
	Start, End time.Time
	Bytes      int64 // payload bytes in the burst
	Packets    int
}

// Bursts splits the upstream payload traffic of the selected flows
// into bursts separated by quiet gaps of at least gap. It walks the
// span-expanded trace: intra-span slice gaps are real transmission
// spacing and legitimately merge or split bursts exactly as the
// per-round records did.
func (c *Capture) Bursts(f FlowFilter, gap time.Duration) []Burst {
	set := c.flowSet(f)
	var out []Burst
	var cur *Burst
	var lastEnd time.Time
	for _, p := range c.ExpandedPackets() {
		if !set[p.Flow] || p.Dir != Upstream || !p.HasPayload() {
			continue
		}
		if cur != nil && p.Time.Sub(lastEnd) >= gap {
			out = append(out, *cur)
			cur = nil
		}
		if cur == nil {
			cur = &Burst{Start: p.Time}
		}
		cur.End = p.Time
		cur.Bytes += p.Payload
		cur.Packets += p.Segments
		lastEnd = p.Time
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// Pause is a quiet period inside an upload, used to infer chunk
// boundaries (Sect. 4.1): a client that splits a large file into
// chunks pauses between chunk submissions while it waits for the
// per-chunk acknowledgment.
type Pause struct {
	At          time.Time // when the quiet period began
	Gap         time.Duration
	BytesBefore int64 // cumulative upstream payload before the pause
}

// UploadPauses returns pauses of at least gap between consecutive
// upstream payload packets over the selected flows, together with the
// cumulative payload uploaded before each pause. Differencing the
// BytesBefore values recovers the chunk size.
func (c *Capture) UploadPauses(f FlowFilter, gap time.Duration) []Pause {
	set := c.flowSet(f)
	var out []Pause
	var last time.Time
	var seen bool
	var cum int64
	for _, p := range c.ExpandedPackets() {
		if !set[p.Flow] || p.Dir != Upstream || !p.HasPayload() {
			continue
		}
		if seen {
			if g := p.Time.Sub(last); g >= gap {
				out = append(out, Pause{At: last, Gap: g, BytesBefore: cum})
			}
		}
		cum += p.Payload
		last = p.Time
		seen = true
	}
	return out
}

// RatePoint is one bucket of a throughput timeline.
type RatePoint struct {
	Time time.Time // bucket start
	Bps  float64   // payload throughput within the bucket
}

// ThroughputTimeline buckets upstream payload into fixed intervals and
// returns the per-bucket rate — the "monitoring throughput during the
// upload" view the paper uses to spot chunking pauses (Sect. 4.1).
// Empty buckets between activity are included (rate 0), so pauses are
// visible; leading/trailing silence is not.
func (c *Capture) ThroughputTimeline(f FlowFilter, bucket time.Duration) []RatePoint {
	if bucket <= 0 {
		panic("trace: non-positive throughput bucket")
	}
	set := c.flowSet(f)
	pkts := c.ExpandedPackets()
	var first, last time.Time
	seen := false
	for _, p := range pkts {
		if set[p.Flow] && p.Dir == Upstream && p.HasPayload() {
			if !seen {
				first = p.Time
				seen = true
			}
			last = p.Time
		}
	}
	if !seen {
		return nil
	}
	n := int(last.Sub(first)/bucket) + 1
	bytes := make([]int64, n)
	for _, p := range pkts {
		if set[p.Flow] && p.Dir == Upstream && p.HasPayload() {
			idx := int(p.Time.Sub(first) / bucket)
			bytes[idx] += p.Payload
		}
	}
	out := make([]RatePoint, n)
	for i, b := range bytes {
		out[i] = RatePoint{
			Time: first.Add(time.Duration(i) * bucket),
			Bps:  float64(b*8) / bucket.Seconds(),
		}
	}
	return out
}

// FarFuture is an instant beyond any simulated timeline, usable as an
// open upper bound for Window.
var FarFuture = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// Window returns a filter-independent sub-capture containing only the
// packet slices in [from, to), preserving flow metadata. It is used to
// analyze phases (login vs idle) separately.
//
// When no span record straddles a window boundary the view is
// zero-copy: it is located by binary search over the time-sorted trace
// and aliases the parent's backing store. Packets recorded after the
// view is taken do not appear in it; the view remains a valid snapshot
// either way. Spans that cross a boundary are expanded deterministically
// at exactly that boundary (Clip), so the sub-capture attributes every
// slice to the window it fell in, byte- and time-identical to a
// capture of the individual slice records. (The relative order of
// equal-instant records from independent connections is not defined —
// no analyzer depends on it.)
func (c *Capture) Window(from, to time.Time) *Capture {
	c.flush()
	lo := sort.Search(len(c.packets), func(i int) bool {
		return !c.packets[i].Time.Before(from)
	})
	hi := lo + sort.Search(len(c.packets)-lo, func(i int) bool {
		return !c.packets[lo+i].Time.Before(to)
	})
	if c.spans == 0 {
		// Span-free trace: pure binary-searched zero-copy view.
		return &Capture{packets: c.packets[lo:hi:hi], flows: c.flows}
	}
	// Spans starting before the window can still reach into it; spans
	// inside can reach past the upper bound. Both need clipping — but
	// the capture's span-timeline bounds prune each scan when no span
	// can straddle that side (the usual [t0, FarFuture) benchmark
	// window skips both).
	var pre []Packet
	if c.minSpanStart.Before(from) {
		for i := 0; i < lo; i++ {
			if p := &c.packets[i]; p.IsSpan() && !p.End().Before(from) {
				if cl, ok := p.Clip(from, to); ok {
					pre = append(pre, cl)
				}
			}
		}
	}
	clipHi := false
	if !c.maxSpanEnd.Before(to) {
		for i := lo; i < hi; i++ {
			if p := &c.packets[i]; p.IsSpan() && !p.End().Before(to) {
				clipHi = true
				break
			}
		}
	}
	if len(pre) == 0 && !clipHi {
		// Views inherit the parent's span accounting as conservative
		// bounds: only "no span could straddle" conclusions are drawn
		// from them, and those stay valid for any subset.
		return &Capture{packets: c.packets[lo:hi:hi], flows: c.flows,
			spans: c.spans, minSpanStart: c.minSpanStart, maxSpanEnd: c.maxSpanEnd}
	}
	out := make([]Packet, 0, len(pre)+(hi-lo))
	out = append(out, pre...)
	for i := lo; i < hi; i++ {
		p := c.packets[i]
		if p.IsSpan() && !p.End().Before(to) {
			if cl, ok := p.Clip(from, to); ok {
				out = append(out, cl)
			}
			continue
		}
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Time.Before(out[j].Time)
	})
	sub := &Capture{packets: out, flows: c.flows}
	for i := range out {
		if p := &out[i]; p.IsSpan() {
			if sub.spans == 0 || p.Time.Before(sub.minSpanStart) {
				sub.minSpanStart = p.Time
			}
			if end := p.End(); sub.spans == 0 || end.After(sub.maxSpanEnd) {
				sub.maxSpanEnd = end
			}
			sub.spans++
		}
	}
	return sub
}
