package trace

import (
	"testing"
	"time"
)

var t0 = time.Date(2013, 10, 23, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// buildCapture makes a small two-flow trace:
// flow 0 (control.example): handshake + 2 small payload exchanges
// flow 1 (storage.example): handshake + upload bursts with a pause
func buildCapture() *Capture {
	c := NewCapture()
	ctl := c.OpenFlow(FlowKey{"10.0.0.1", 40000, "198.51.100.1", 443, TCP}, "control.example", at(0))
	sto := c.OpenFlow(FlowKey{"10.0.0.1", 40001, "203.0.113.1", 443, TCP}, "storage.example", at(5))

	c.Record(Packet{Time: at(0), Flow: ctl, Dir: Upstream, Flags: Flags{SYN: true}, Wire: 74, Segments: 1})
	c.Record(Packet{Time: at(10), Flow: ctl, Dir: Downstream, Flags: Flags{SYN: true, ACK: true}, Wire: 74, Segments: 1})
	c.Record(Packet{Time: at(20), Flow: ctl, Dir: Upstream, Payload: 300, Wire: 366, Segments: 1})
	c.Record(Packet{Time: at(30), Flow: ctl, Dir: Downstream, Payload: 500, Wire: 566, Segments: 1})

	c.Record(Packet{Time: at(40), Flow: sto, Dir: Upstream, Flags: Flags{SYN: true}, Wire: 74, Segments: 1})
	c.Record(Packet{Time: at(50), Flow: sto, Dir: Downstream, Flags: Flags{SYN: true, ACK: true}, Wire: 74, Segments: 1})
	// burst 1: two records close together
	c.Record(Packet{Time: at(60), Flow: sto, Dir: Upstream, Payload: 1460, Wire: 1526, Segments: 1})
	c.Record(Packet{Time: at(70), Flow: sto, Dir: Upstream, Payload: 2920, Wire: 3052, Segments: 2})
	// pause of 400 ms (chunk boundary), then burst 2
	c.Record(Packet{Time: at(470), Flow: sto, Dir: Upstream, Payload: 1460, Wire: 1526, Segments: 1})
	c.Record(Packet{Time: at(480), Flow: sto, Dir: Downstream, Payload: 200, Wire: 266, Segments: 1})
	c.Record(Packet{Time: at(490), Flow: sto, Dir: Upstream, Flags: Flags{FIN: true, ACK: true}, Wire: 66, Segments: 1})
	return c
}

func storageOnly(f FlowInfo) bool { return f.ServerName == "storage.example" }
func controlOnly(f FlowInfo) bool { return f.ServerName == "control.example" }

func TestCaptureBasics(t *testing.T) {
	c := buildCapture()
	if c.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d", c.NumFlows())
	}
	if c.Len() != 11 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Flow(0).ServerName; got != "control.example" {
		t.Fatalf("Flow(0).ServerName = %q", got)
	}
	if got := c.Flows()[1].Key.ServerAddr; got != "203.0.113.1" {
		t.Fatalf("flow 1 server = %q", got)
	}
}

func TestRecordOutOfOrderIsSorted(t *testing.T) {
	c := NewCapture()
	id := c.OpenFlow(FlowKey{}, "x", at(0))
	c.Record(Packet{Time: at(10), Flow: id, Wire: 1})
	c.Record(Packet{Time: at(5), Flow: id, Wire: 2})
	c.Record(Packet{Time: at(7), Flow: id, Wire: 3})
	got := c.Packets()
	if got[0].Wire != 2 || got[1].Wire != 3 || got[2].Wire != 1 {
		t.Fatalf("records not time-sorted: %+v", got)
	}
}

func TestAckWireAccounting(t *testing.T) {
	c := NewCapture()
	id := c.OpenFlow(FlowKey{}, "s", at(0))
	c.Record(Packet{Time: at(0), Flow: id, Dir: Upstream, Payload: 2920, Wire: 3052, Segments: 2, AckWire: 66})
	if got := c.Analyze(AllFlows).TotalWire; got != 3052+66 {
		t.Fatalf("TotalWire = %d", got)
	}
	if got := c.Analyze(AllFlows).WireUp; got != 3052 {
		t.Fatalf("up = %d", got)
	}
	if got := c.Analyze(AllFlows).WireDown; got != 66 {
		t.Fatalf("down (acks) = %d", got)
	}
	if got := c.FlowBytes()[0]; got != 3118 {
		t.Fatalf("FlowBytes = %d", got)
	}
}

func TestByteAccounting(t *testing.T) {
	c := buildCapture()
	if got := c.Analyze(AllFlows).TotalWire; got != 74+74+366+566+74+74+1526+3052+1526+266+66 {
		t.Fatalf("TotalWire = %d", got)
	}
	if got := c.Analyze(storageOnly).WireUp; got != 74+1526+3052+1526+66 {
		t.Fatalf("storage upstream wire = %d", got)
	}
	if got := c.Analyze(storageOnly).PayloadUp; got != 1460+2920+1460 {
		t.Fatalf("storage upstream payload = %d", got)
	}
	if got := c.Analyze(controlOnly).PayloadDown; got != 500 {
		t.Fatalf("control downstream payload = %d", got)
	}
}

func TestFirstLastPayload(t *testing.T) {
	c := buildCapture()
	a := c.Analyze(storageOnly)
	if !a.HasPayload || !a.FirstPayload.Equal(at(60)) {
		t.Fatalf("FirstPayload = %v,%v", a.FirstPayload, a.HasPayload)
	}
	if !a.LastPayload.Equal(at(480)) {
		t.Fatalf("LastPayload = %v", a.LastPayload)
	}
	if c.Analyze(func(FlowInfo) bool { return false }).HasPayload {
		t.Fatal("HasPayload on empty filter")
	}
}

func TestSYNCounting(t *testing.T) {
	c := buildCapture()
	ts := c.Analyze(AllFlows).SYNTimes
	if len(ts) != 2 {
		t.Fatalf("SYN count = %d, want 2 (SYN-ACKs excluded)", len(ts))
	}
	if !ts[0].Equal(at(0)) || !ts[1].Equal(at(40)) {
		t.Fatalf("SYN times = %v", ts)
	}
	if got := c.Analyze(storageOnly).Connections; got != 1 {
		t.Fatalf("storage connections = %d", got)
	}
}

func TestCumulativeBytesTimeline(t *testing.T) {
	c := buildCapture()
	tl := c.CumulativeBytes(controlOnly)
	if len(tl) != 4 {
		t.Fatalf("timeline points = %d", len(tl))
	}
	if tl[len(tl)-1].Bytes != 74+74+366+566 {
		t.Fatalf("final cumulative = %d", tl[len(tl)-1].Bytes)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Bytes < tl[i-1].Bytes || tl[i].Time.Before(tl[i-1].Time) {
			t.Fatal("timeline not monotonic")
		}
	}
}

func TestBurstDetection(t *testing.T) {
	c := buildCapture()
	bursts := c.Bursts(storageOnly, 200*time.Millisecond)
	if len(bursts) != 2 {
		t.Fatalf("bursts = %d, want 2", len(bursts))
	}
	if bursts[0].Bytes != 1460+2920 || bursts[0].Packets != 3 {
		t.Fatalf("burst[0] = %+v", bursts[0])
	}
	if bursts[1].Bytes != 1460 {
		t.Fatalf("burst[1] = %+v", bursts[1])
	}
	// With a huge threshold everything is one burst.
	if got := len(c.Bursts(storageOnly, time.Hour)); got != 1 {
		t.Fatalf("one-burst case = %d", got)
	}
	// No payload -> no bursts.
	if got := len(c.Bursts(func(FlowInfo) bool { return false }, time.Millisecond)); got != 0 {
		t.Fatalf("empty filter bursts = %d", got)
	}
}

func TestUploadPauses(t *testing.T) {
	c := buildCapture()
	pauses := c.UploadPauses(storageOnly, 200*time.Millisecond)
	if len(pauses) != 1 {
		t.Fatalf("pauses = %d, want 1", len(pauses))
	}
	p := pauses[0]
	if p.BytesBefore != 1460+2920 {
		t.Fatalf("BytesBefore = %d, want 4380 (chunk size)", p.BytesBefore)
	}
	if p.Gap != 400*time.Millisecond {
		t.Fatalf("Gap = %v", p.Gap)
	}
}

func TestFlowBytes(t *testing.T) {
	c := buildCapture()
	fb := c.FlowBytes()
	if len(fb) != 2 {
		t.Fatalf("FlowBytes len = %d", len(fb))
	}
	if fb[0] != 74+74+366+566 {
		t.Fatalf("flow 0 bytes = %d", fb[0])
	}
	if fb[1] <= fb[0] {
		t.Fatal("storage flow should carry more bytes than control (Wuala heuristic)")
	}
}

func TestWindow(t *testing.T) {
	c := buildCapture()
	w := c.Window(at(40), at(100))
	if w.Len() != 4 {
		t.Fatalf("window len = %d, want 4", w.Len())
	}
	if w.NumFlows() != 2 {
		t.Fatal("window must keep flow metadata")
	}
	// Window boundaries: inclusive start, exclusive end.
	w2 := c.Window(at(60), at(60))
	if w2.Len() != 0 {
		t.Fatalf("empty window len = %d", w2.Len())
	}
}

func TestDirectionProtoStrings(t *testing.T) {
	if Upstream.String() != "up" || Downstream.String() != "down" {
		t.Fatal("Direction strings")
	}
	if TCP.String() != "tcp" || UDP.String() != "udp" {
		t.Fatal("Proto strings")
	}
	k := FlowKey{"1.2.3.4", 1000, "5.6.7.8", 443, TCP}
	if k.String() != "tcp 1.2.3.4:1000->5.6.7.8:443" {
		t.Fatalf("FlowKey.String = %q", k.String())
	}
}

func TestThroughputTimeline(t *testing.T) {
	c := buildCapture()
	tl := c.ThroughputTimeline(storageOnly, 100*time.Millisecond)
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	// First bucket covers the 60-70ms records (4380 B); the pause
	// around 100-400ms shows as zero-rate buckets.
	if tl[0].Bps <= 0 {
		t.Fatalf("first bucket rate = %v", tl[0].Bps)
	}
	sawPause := false
	for _, p := range tl {
		if p.Bps == 0 {
			sawPause = true
		}
	}
	if !sawPause {
		t.Fatal("chunk pause not visible in throughput timeline")
	}
	// Total bytes conserved across buckets.
	var total float64
	for _, p := range tl {
		total += p.Bps / 8 * 0.1
	}
	if want := float64(1460 + 2920 + 1460); total < want-1 || total > want+1 {
		t.Fatalf("timeline bytes = %.0f, want %.0f", total, want)
	}
}

func TestThroughputTimelineEmptyAndBadBucket(t *testing.T) {
	c := NewCapture()
	if got := c.ThroughputTimeline(AllFlows, time.Second); got != nil {
		t.Fatal("empty capture timeline")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero bucket")
		}
	}()
	buildCapture().ThroughputTimeline(AllFlows, 0)
}
