// Package core implements the paper's contribution: the methodology
// and benchmarking tool for personal cloud storage services.
//
// It assembles the testbed (Sect. 2), runs the capability checks
// (Sect. 4), the performance benchmarks (Sect. 5) and the architecture
// discovery (Sect. 2.1/3.2), deriving every metric exclusively from
// the packet trace — the same information boundary the paper's passive
// sniffer had. Each figure and table of the paper maps to a function
// here; see DESIGN.md for the experiment index.
package core

import (
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/whois"
	"repro/internal/workload"
)

// TwenteCoord is the testbed location: the University of Twente
// campus, Enschede (Sect. 2.4).
var TwenteCoord = geo.Coord{Lat: 52.24, Lon: 6.85}

// Testbed is one fully assembled measurement setup for one service:
// the synthetic Internet, the service deployment, the test computer,
// the client under test, and the packet trace. Each benchmark
// repetition uses a fresh testbed so that server-side state (the
// dedup store) and client state start clean, exactly as the paper
// resets its test accounts.
//
// The trace runs in one of two modes. Buffered (Cap non-nil) keeps
// every packet record, supporting arbitrary re-windowing and
// per-packet analyzers afterwards — what the protocol/capability
// studies and cmd/tracedump need. Streaming (Stream non-nil) folds
// packets into the registered benchmark window at record time and
// discards them, capping per-repetition memory at O(flows) — what the
// Sect. 5 campaign engine uses. Exactly one of Cap/Stream is set.
type Testbed struct {
	Seed    int64
	Clock   *sim.Clock
	Sched   *sim.Scheduler
	Net     *netem.Network
	DNS     *dnssim.System
	Whois   *whois.Registry
	Cap     *trace.Capture  // buffered trace; nil in streaming mode
	Stream  *trace.Streamer // streaming folds; nil in buffered mode
	Deploy  *cloud.Deployment
	Client  *client.Client
	Folder  *workload.Folder
	RNG     *sim.RNG
	Profile client.Profile

	// win is the registered benchmark window in streaming mode.
	win *trace.StreamWindow
}

// NewTestbed builds a buffered-trace testbed for one of the five
// studied services. Jitter makes RTT samples vary around their
// geographic base value, giving the 24 repetitions realistic
// dispersion; pass jitter=0 for exact analytic assertions in tests.
func NewTestbed(p client.Profile, seed int64, jitter float64) *Testbed {
	return NewTestbedFor(p, cloud.SpecFor(p.Service), seed, jitter)
}

// NewStreamingTestbed builds a streaming-trace testbed: the client
// records into a trace.Streamer, so packets are folded into the
// benchmark window (see StartWindow) and discarded instead of
// buffered. Simulated behaviour and every derived metric are
// bit-identical to a buffered testbed of the same seed; only the
// trace-memory profile changes.
func NewStreamingTestbed(p client.Profile, seed int64, jitter float64) *Testbed {
	return assembleTestbed(p, cloud.SpecFor(p.Service), campusHost(), sim.NewRNG(seed), jitter, true)
}

// NewTestbedFor builds a buffered testbed for an arbitrary
// profile/deployment pair — the extension hook for benchmarking
// services beyond the five in the paper ("to extend the number of
// tested services").
func NewTestbedFor(p client.Profile, spec cloud.Spec, seed int64, jitter float64) *Testbed {
	return assembleTestbed(p, spec, campusHost(), sim.NewRNG(seed), jitter, false)
}

// campusHost is the paper's test computer: the University of Twente
// campus network.
func campusHost() *netem.Host {
	return &netem.Host{
		Name:  "testpc.utwente.sim",
		Addr:  "130.89.0.1",
		Coord: TwenteCoord,
		// 1 Gb/s campus Ethernet: "the network is not a
		// bottleneck" — leave the client side uncapped.
	}
}

// assembleTestbed is the single assembly path behind every testbed
// constructor; host describes the (not yet added) test computer, rng
// is the top of the repetition's randomness tree, and streaming
// selects the trace mode.
func assembleTestbed(p client.Profile, spec cloud.Spec, host *netem.Host, rng *sim.RNG, jitter float64, streaming bool) *Testbed {
	seed := rng.Seed()
	clock := sim.NewClock()
	n := netem.New(clock, rng.Fork(1))
	n.JitterFraction = jitter
	dns := dnssim.NewSystem(rng.Fork(2))
	reg := whois.NewRegistry()
	deploy := cloud.Build(n, dns, reg, spec)
	h := n.AddHost(host)
	tb := &Testbed{
		Seed: seed, Clock: clock, Sched: sim.NewScheduler(clock),
		Net: n, DNS: dns, Whois: reg, Deploy: deploy,
		Folder: workload.NewFolder(), RNG: rng.Fork(4),
		Profile: p,
	}
	var sink trace.Sink
	if streaming {
		tb.Stream = trace.NewStreamer()
		sink = tb.Stream
	} else {
		tb.Cap = trace.NewCapture()
		sink = tb.Cap
	}
	tb.Client = client.New(client.Config{
		Profile: p, Deploy: deploy, Net: n, Host: h,
		Cap: sink, DNS: dns, RNG: rng.Fork(3),
	})
	return tb
}

// Settle logs the client in and lets it idle briefly, so benchmark
// traffic is cleanly separated from login traffic. It returns the
// instant the benchmark may start.
func (tb *Testbed) Settle() time.Time {
	done := tb.Client.Login(tb.Clock.Now())
	tb.Clock.AdvanceTo(done)
	start := done.Add(30 * time.Second)
	tb.Clock.AdvanceTo(start)
	return start
}

// StartWindow registers the benchmark measurement window [t0,
// FarFuture) on a streaming testbed, so that every packet recorded
// from here on is folded into it. It must be called right when the
// window opens — after login/settle traffic, before the workload is
// materialized. On a buffered testbed it is a no-op: buffered windows
// are zero-copy views taken at read time.
func (tb *Testbed) StartWindow(t0 time.Time) {
	if tb.Stream != nil {
		tb.win = tb.Stream.AddWindow(t0, trace.FarFuture)
	}
}

// benchWindow returns the registered streaming window, insisting it
// matches the requested start: a streamed repetition has exactly one
// measurement window, registered up front, and reading any other
// window would silently analyze discarded packets.
func (tb *Testbed) benchWindow(t0 time.Time) *trace.StreamWindow {
	if tb.win == nil {
		panic("core: streaming testbed measured without StartWindow")
	}
	if !tb.win.From().Equal(t0) {
		panic("core: streaming testbed measured at a window start it never registered")
	}
	return tb.win
}

// AnalyzeWindow computes every scalar trace metric over the selected
// flows within the benchmark window [t0, FarFuture), in whichever
// trace mode the testbed runs: one single-pass scan of the buffered
// trace, or a read of the streaming accumulators. Both paths are
// bit-identical.
func (tb *Testbed) AnalyzeWindow(t0 time.Time, f trace.FlowFilter) trace.Analysis {
	if tb.Stream != nil {
		return tb.benchWindow(t0).Analyze(f)
	}
	return tb.Cap.Window(t0, trace.FarFuture).Analyze(f)
}

// windowFlowBytes returns per-flow wire bytes within the benchmark
// window, for the same-name storage classifier.
func (tb *Testbed) windowFlowBytes(t0 time.Time) []int64 {
	if tb.Stream != nil {
		return tb.benchWindow(t0).FlowBytes()
	}
	return tb.Cap.Window(t0, trace.FarFuture).FlowBytes()
}

// StorageFilter classifies flows for measurement. Services that split
// control from storage are classified by DNS name (trivially, as the
// paper notes). Wuala and the edge-terminated Google Drive use one
// name for everything, so the filter falls back to the paper's
// heuristic: storage flows are the connections opened after the
// workload started (connection sequences) or carrying substantial
// payload within the window (flow sizes).
func (tb *Testbed) StorageFilter(winStart time.Time) trace.FlowFilter {
	storageName := tb.Deploy.DNSName(cloud.Storage)
	controlName := tb.Deploy.DNSName(cloud.Control)
	if tb.Deploy.Spec.EdgeNetwork {
		storageName = tb.Deploy.DNSName(cloud.Edge)
		controlName = storageName
	}
	if storageName != controlName {
		return func(f trace.FlowInfo) bool { return f.ServerName == storageName }
	}
	// Same-name service: flow sizes and connection sequences.
	bytes := tb.windowFlowBytes(winStart)
	return func(f trace.FlowInfo) bool {
		if f.ServerName != storageName {
			return false
		}
		if !f.OpenedAt.Before(winStart) {
			return true
		}
		return int(f.ID) < len(bytes) && bytes[f.ID] >= 30_000
	}
}
