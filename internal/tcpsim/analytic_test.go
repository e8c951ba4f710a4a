package tcpsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file pins the closed-form transfer engine to the per-round
// event loop it replaced: same records (after span expansion), same
// timelines, same derived metrics, for every path shape the five
// service profiles exercise. Clean paths are bit-identical per seed;
// lossy paths are bit-identical under injected loss positions
// (loss_equiv_test.go) and distributionally identical under the RNG
// (the draw sequences necessarily differ between engines).

// engineConfig mirrors one service data-center path from
// cloud/services.go: geography (RTT), per-connection rate cap,
// processing delay and TLS mode.
type engineConfig struct {
	name    string
	coord   geo.Coord
	rateBps int64
	proc    time.Duration
	tls     TLSConfig
}

// engineConfigs covers the five profiles' transport diversity:
// Dropbox San Jose (50 Mb/s, far), SkyDrive Seattle (3 Mb/s, far),
// Wuala Nuremberg (35 Mb/s, near), Google edge (26 Mb/s, very near),
// Cloud Drive Dublin (15 Mb/s, mid), plus an uncapped path (pure slow
// start) and a plain-HTTP Wuala storage path.
var engineConfigs = []engineConfig{
	{"dropbox-sanjose", geo.Coord{Lat: 37.34, Lon: -121.89}, 50e6, 35 * time.Millisecond, DefaultTLS},
	{"skydrive-seattle", geo.Coord{Lat: 47.45, Lon: -122.31}, 3e6, 60 * time.Millisecond, DefaultTLS},
	{"wuala-nuremberg", geo.Coord{Lat: 49.45, Lon: 11.08}, 35e6, 25 * time.Millisecond, DefaultTLS},
	{"google-edge", geo.Coord{Lat: 52.31, Lon: 4.76}, 26e6, 130 * time.Millisecond, DefaultTLS},
	{"clouddrive-dublin", geo.Coord{Lat: 53.34, Lon: -6.27}, 15e6, 55 * time.Millisecond, DefaultTLS},
	{"uncapped", geo.Coord{Lat: 39.04, Lon: -77.49}, 0, 40 * time.Millisecond, DefaultTLS},
	{"wuala-plain-http", geo.Coord{Lat: 47.38, Lon: 8.54}, 35e6, 25 * time.Millisecond, PlainTCP},
}

// enginePair builds two identical testbeds for one config — one
// recording through the closed-form engine, one forced through the
// per-round event loop — so the same operation script can be replayed
// against both.
func enginePair(cfg engineConfig, seed int64, loss float64) (a, b *Conn, capA, capB *trace.Capture) {
	build := func(force bool) (*Conn, *trace.Capture) {
		n := netem.New(sim.NewClock(), sim.NewRNG(seed))
		n.LossRate = loss
		client := n.AddHost(&netem.Host{Name: "client.sim", Addr: "10.0.0.1",
			Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
		server := n.AddHost(&netem.Host{Name: "server.sim", Addr: "203.0.113.1",
			Coord: cfg.coord, RateBps: cfg.rateBps, ProcDelay: cfg.proc})
		cap := trace.NewCapture()
		d := NewDialer(n, cap, client)
		if force {
			useEventLoop(d)
		}
		return d.Dial(server, cfg.name, sim.Epoch, cfg.tls), cap
	}
	a, capA = build(false)
	b, capB = build(true)
	return a, b, capA, capB
}

// replayScript drives one random operation sequence against a
// connection and returns the instants every op completed at, so the
// two engines' timelines can be compared instant for instant.
func replayScript(c *Conn, rng *rand.Rand) []time.Time {
	var marks []time.Time
	ops := 3 + rng.Intn(8)
	for i := 0; i < ops; i++ {
		// Sizes from sub-cwnd to multi-MB: slow-start-only, mixed, and
		// deep steady-state transfers.
		size := int64(1 + rng.Intn(1<<22))
		if rng.Intn(4) == 0 {
			size = int64(1 + rng.Intn(8000))
		}
		switch rng.Intn(4) {
		case 0:
			last, serverDone := c.Send(size)
			marks = append(marks, last, serverDone)
		case 1:
			done := c.Recv(c.FreeAt().Add(time.Duration(rng.Intn(50))*time.Millisecond), size)
			marks = append(marks, done)
		case 2:
			done := c.RequestResponse(200+size/100, size)
			marks = append(marks, done)
		case 3:
			c.Idle(time.Duration(rng.Intn(200)) * time.Millisecond)
			marks = append(marks, c.FreeAt())
		}
	}
	marks = append(marks, c.Close())
	return marks
}

// TestAnalyticMatchesEventLoop is the clean-path engine equivalence
// oracle: random operation scripts over every profile-representative
// path must leave both engines with identical flow metadata, identical
// expanded packet records, identical timelines and identical analyses
// — bit for bit. (Lossy equivalence is pinned separately: exactly
// under injected loss positions, distributionally under the RNG.)
func TestAnalyticMatchesEventLoop(t *testing.T) {
	for _, cfg := range engineConfigs {
		for _, loss := range []float64{0} {
			for seed := int64(0); seed < 12; seed++ {
				a, b, capA, capB := enginePair(cfg, seed+1, loss)
				marksA := replayScript(a, rand.New(rand.NewSource(seed)))
				marksB := replayScript(b, rand.New(rand.NewSource(seed)))

				if len(marksA) != len(marksB) {
					t.Fatalf("%s loss=%v seed %d: op count diverged", cfg.name, loss, seed)
				}
				for i := range marksA {
					if !marksA[i].Equal(marksB[i]) {
						t.Fatalf("%s loss=%v seed %d: op %d completed at %v (analytic) vs %v (event loop)",
							cfg.name, loss, seed, i, marksA[i], marksB[i])
					}
				}
				pa, pb := capA.ExpandedPackets(), capB.ExpandedPackets()
				if len(pa) != len(pb) {
					t.Fatalf("%s loss=%v seed %d: %d expanded records (analytic) vs %d (event loop)",
						cfg.name, loss, seed, len(pa), len(pb))
				}
				for i := range pa {
					if pa[i] != pb[i] {
						t.Fatalf("%s loss=%v seed %d: record %d differs\n analytic  %+v\n event loop %+v",
							cfg.name, loss, seed, i, pa[i], pb[i])
					}
				}
				if capA.ExpandedLen() != capB.Len() {
					t.Fatalf("%s loss=%v seed %d: ExpandedLen %d != event-loop record count %d",
						cfg.name, loss, seed, capA.ExpandedLen(), capB.Len())
				}
				if ba, bb := a.BytesUp(), b.BytesUp(); ba != bb {
					t.Fatalf("%s loss=%v seed %d: BytesUp %d vs %d", cfg.name, loss, seed, ba, bb)
				}
				if ba, bb := a.BytesDown(), b.BytesDown(); ba != bb {
					t.Fatalf("%s loss=%v seed %d: BytesDown %d vs %d", cfg.name, loss, seed, ba, bb)
				}
			}
		}
	}
}

// TestAnalyticWindowEquivalence cuts windows straight through the
// middle of span records and checks every analysis against the
// event-loop capture of the same run: boundary expansion must
// attribute each slice to the same window the per-round records fell
// in.
func TestAnalyticWindowEquivalence(t *testing.T) {
	cfg := engineConfigs[0] // 50 Mb/s far path: long steady-state spans
	for seed := int64(0); seed < 8; seed++ {
		a, b, capA, capB := enginePair(cfg, seed+1, 0)
		rng := rand.New(rand.NewSource(seed))
		replayScript(a, rng)
		replayScript(b, rand.New(rand.NewSource(seed)))

		pkts := capB.Packets()
		lastT := pkts[len(pkts)-1].Time
		span := lastT.Sub(sim.Epoch)
		cuts := [][2]time.Time{
			{sim.Epoch, trace.FarFuture},
			{sim.Epoch.Add(span / 3), sim.Epoch.Add(2 * span / 3)},
			{sim.Epoch.Add(span / 2), trace.FarFuture},
			{sim.Epoch.Add(span * 9 / 10), sim.Epoch.Add(span)},
		}
		for i := 0; i < 6; i++ {
			lo := time.Duration(rng.Int63n(int64(span) + 1))
			hi := lo + time.Duration(rng.Int63n(int64(span-lo)+1))
			cuts = append(cuts, [2]time.Time{sim.Epoch.Add(lo), sim.Epoch.Add(hi)})
		}
		for _, cut := range cuts {
			wa := capA.Window(cut[0], cut[1])
			wb := capB.Window(cut[0], cut[1])
			ga, gb := wa.Analyze(trace.AllFlows), wb.Analyze(trace.AllFlows)
			if ga.Packets != gb.Packets || ga.TotalWire != gb.TotalWire ||
				ga.WireUp != gb.WireUp || ga.WireDown != gb.WireDown ||
				ga.PayloadUp != gb.PayloadUp || ga.PayloadDown != gb.PayloadDown ||
				ga.HasPayload != gb.HasPayload || ga.Connections != gb.Connections {
				t.Fatalf("seed %d window [%v,%v): analyses diverge\n analytic   %+v\n event loop %+v",
					seed, cut[0], cut[1], ga, gb)
			}
			if ga.HasPayload && (!ga.FirstPayload.Equal(gb.FirstPayload) || !ga.LastPayload.Equal(gb.LastPayload)) {
				t.Fatalf("seed %d window [%v,%v): payload bracket [%v,%v] vs [%v,%v]",
					seed, cut[0], cut[1], ga.FirstPayload, ga.LastPayload, gb.FirstPayload, gb.LastPayload)
			}
			ea, eb := wa.ExpandedPackets(), wb.Packets()
			if len(ea) != len(eb) {
				t.Fatalf("seed %d window [%v,%v): %d vs %d expanded records", seed, cut[0], cut[1], len(ea), len(eb))
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("seed %d window [%v,%v): record %d differs\n analytic   %+v\n event loop %+v",
						seed, cut[0], cut[1], i, ea[i], eb[i])
				}
			}
		}
	}
}

// TestSteadyStateCollapsesToSpan pins the point of the refactor: a
// deep rate-limited transfer is one span record — and at least 10x
// fewer Sink.Record calls — where the event loop emitted one record
// per BDP slice.
func TestSteadyStateCollapsesToSpan(t *testing.T) {
	cfg := engineConfig{"zurich", geo.Coord{Lat: 47.38, Lon: 8.54}, 30e6, 0, DefaultTLS}
	a, b, capA, capB := enginePair(cfg, 1, 0)
	const n = 16 << 20
	a.Send(n)
	b.Send(n)
	if capA.SpanCount() == 0 {
		t.Fatal("16 MB steady-state transfer emitted no span record")
	}
	if capA.Len()*10 > capB.Len() {
		t.Fatalf("analytic engine recorded %d records vs event loop's %d — want >=10x reduction",
			capA.Len(), capB.Len())
	}
	if capA.ExpandedLen() != capB.Len() {
		t.Fatalf("expansion mismatch: %d vs %d", capA.ExpandedLen(), capB.Len())
	}
}

// TestLossyPathUsesAnalyticEngine pins that a lossy transfer now runs
// the closed-form engine: the clean runs between sampled losses
// collapse into span records, and the record count is far below the
// event loop's per-round output for the same transfer.
func TestLossyPathUsesAnalyticEngine(t *testing.T) {
	_, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	d.Net.LossRate = 0.02
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Send(8 << 20)
	if got := cap.SpanCount(); got == 0 {
		t.Fatal("lossy transfer recorded no span records — clean runs between losses should collapse")
	}

	_, capB, dB, serverB := testbed(zrhCoord(), 30e6, 0)
	dB.Net.LossRate = 0.02
	useEventLoop(dB)
	cB := dB.Dial(serverB, "s", sim.Epoch, PlainTCP)
	cB.Send(8 << 20)
	if capB.SpanCount() != 0 {
		t.Fatalf("event loop emitted %d span records, want 0", capB.SpanCount())
	}
	// Record-count comparisons between the two RNG-driven runs would
	// compare different loss realizations; the deterministic record
	// and draw reductions are pinned by TestAnalyticLossDrawReduction.
}

// TestClosedConnectionRefusesTraffic pins the Close/Abort guard: a
// FIN'd or reset flow must never silently emit traffic again.
func TestClosedConnectionRefusesTraffic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a closed connection did not panic", name)
			}
		}()
		f()
	}
	_, _, d, server := testbed(iadCoord(), 20e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Send(1000)
	c.Close()
	c.Close() // Close stays idempotent
	mustPanic("Send", func() { c.Send(1) })
	mustPanic("Recv", func() { c.Recv(c.FreeAt(), 1) })
	mustPanic("RequestResponse", func() { c.RequestResponse(1, 1) })
	mustPanic("SendUntil", func() { c.SendUntil(1, c.FreeAt().Add(time.Second)) })

	c2 := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c2.Abort()
	mustPanic("Send after Abort", func() { c2.Send(1) })
}
