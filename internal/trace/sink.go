package trace

import (
	"fmt"
	"time"
)

// Sink is the recording half of a trace: the interface the transport
// simulator (tcpsim, and everything stacked on it) writes against.
// Two implementations exist:
//
//   - Capture buffers every packet record and supports arbitrary
//     re-windowing and per-packet analyzers afterwards — the tcpdump
//     equivalent, O(packets) memory.
//   - Streamer folds packets into pre-registered window accumulators
//     at record time and then discards them — the "compute the
//     counters in the kernel" equivalent, O(flows) memory.
//
// Both compute every scalar metric with the same fold (fold.add): a
// Capture runs it over its buffered records when read, a Streamer over
// each record as it arrives. The fold is order-independent except for
// the SYN timeline, which it re-establishes in stable time order at
// read time, so records arriving slightly out of order (connections
// simulate on independent timelines) give the same result as the
// stably time-sorted trace.
type Sink interface {
	// OpenFlow registers a new connection and returns its ID.
	OpenFlow(key FlowKey, serverName string, at time.Time) FlowID
	// Record adds a packet to the trace.
	Record(p Packet)
}

var (
	_ Sink = (*Capture)(nil)
	_ Sink = (*Streamer)(nil)
)

// Streamer is a packet sink that never buffers packets: each Record
// folds the packet into the accumulators of every registered window
// that contains its timestamp, then drops it. Memory is
// O(flows + windows), independent of trace length — the property that
// lets campaign size scale with repetitions instead of packets
// (production-scale runs of the Sect. 5 benchmarks never re-read the
// trace, they only need the per-window Analysis).
//
// A StreamWindow over [from, to) clips each record to the window
// (Packet.Clip, as Capture.Window does) and feeds the clipped part to
// the same fold Capture.Analyze runs, so StreamWindow.Analyze(f)
// equals Capture.Window(from, to).Analyze(f) over the same records by
// construction, and likewise FlowBytes and FlowsWithTraffic. Filters
// apply at read time, against FlowInfo, so classifiers that need
// per-flow traffic totals (the Wuala flow-size heuristic) work from
// StreamWindow.FlowBytes.
//
// Windows must be registered before any packet whose timestamp falls
// inside them is recorded; AddWindow enforces this, so no record the
// buffered capture would see is missed by the discarded trace. Like
// Capture, a Streamer is not safe for concurrent use — the campaign
// engine gives every experiment cell its own sink.
type Streamer struct {
	flows []FlowInfo
	wins  []*StreamWindow

	// maxSeen is the latest timestamp recorded so far — for span
	// records the instant of their last slice, since the whole span is
	// discarded at record time; AddWindow uses it to reject
	// registrations that would miss already-discarded packets.
	maxSeen time.Time
	seen    bool
}

// NewStreamer returns a streamer with no flows and no windows.
func NewStreamer() *Streamer { return &Streamer{} }

// OpenFlow registers a new connection and returns its ID.
func (s *Streamer) OpenFlow(key FlowKey, serverName string, at time.Time) FlowID {
	id := FlowID(len(s.flows))
	s.flows = append(s.flows, FlowInfo{ID: id, Key: key, ServerName: serverName, OpenedAt: at})
	return id
}

// Record folds a packet into every registered window containing its
// timestamp and discards it. O(windows) per packet, no retention.
// Span records fold in O(1) per window: totals when fully contained,
// a deterministic O(1) clip at window boundaries otherwise.
func (s *Streamer) Record(p Packet) {
	if end := p.End(); !s.seen || end.After(s.maxSeen) {
		s.maxSeen = end
		s.seen = true
	}
	for _, w := range s.wins {
		w.record(p)
	}
}

// AddWindow registers a half-open accumulation window [from, to),
// matching Capture.Window semantics. It panics when a packet at or
// after `from` has already been recorded: that packet is gone, so the
// window could silently diverge from a buffered capture of the same
// run. Callers register windows at quiet instants (the benchmark
// engine does so right when the window opens, after the trace has
// settled).
func (s *Streamer) AddWindow(from, to time.Time) *StreamWindow {
	if s.seen && !s.maxSeen.Before(from) {
		panic(fmt.Sprintf(
			"trace: AddWindow(from=%v) after recording a packet at %v; streaming windows must be registered before their traffic",
			from, s.maxSeen))
	}
	w := &StreamWindow{s: s, from: from, to: to}
	s.wins = append(s.wins, w)
	return w
}

// Flows returns metadata for every connection seen by the streamer.
func (s *Streamer) Flows() []FlowInfo { return s.flows }

// Flow returns the metadata for one connection.
func (s *Streamer) Flow(id FlowID) FlowInfo { return s.flows[id] }

// NumFlows returns how many connections the streamer saw.
func (s *Streamer) NumFlows() int { return len(s.flows) }

// StreamWindow accumulates one [from, to) time slice of the stream.
// It answers the same questions as a Capture.Window over the same
// records — Analyze, FlowBytes, FlowsWithTraffic — without the
// records.
type StreamWindow struct {
	s        *Streamer
	from, to time.Time
	acc      fold
}

// From returns the window's inclusive lower bound.
func (w *StreamWindow) From() time.Time { return w.from }

// To returns the window's exclusive upper bound.
func (w *StreamWindow) To() time.Time { return w.to }

// record folds one packet's in-window part. A span is first clipped
// to the window (O(1): index arithmetic over the uniform slicing), so
// a span straddling a boundary contributes exactly its in-window
// slices, and a fully contained one folds its totals without
// expansion — the same clip Capture.Window applies.
func (w *StreamWindow) record(p Packet) {
	if cl, ok := p.Clip(w.from, w.to); ok {
		w.acc.add(&cl)
	}
}

// Analyze merges the per-flow accumulators of the selected flows into
// one Analysis — the fold Capture.Window(from, to).Analyze(f) runs
// over the same records.
func (w *StreamWindow) Analyze(f FlowFilter) Analysis {
	return w.acc.analysis(w.s.flows, f)
}

// FlowBytes returns total wire bytes per flow within the window,
// indexed by FlowID — the Wuala storage/control classifier input.
func (w *StreamWindow) FlowBytes() []int64 {
	return w.acc.flowBytes(len(w.s.flows))
}

// FlowsWithTraffic reports which flows carry at least one packet in
// the window, indexed by FlowID.
func (w *StreamWindow) FlowsWithTraffic() []bool {
	return w.acc.flowsWithTraffic(len(w.s.flows))
}
